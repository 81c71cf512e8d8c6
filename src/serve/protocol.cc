#include "serve/protocol.h"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/string_util.h"

namespace cpgan::serve {
namespace {

// The number parsers reject out-of-range text (errno == ERANGE) instead of
// accepting the saturated value strto* returns for it.

bool ParseInt64(const std::string& text, int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE) return false;
  *out = static_cast<int64_t>(value);
  return true;
}

bool ParseUint64(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE) return false;
  *out = static_cast<uint64_t>(value);
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

std::string SanitizeToken(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '=') c = '_';
  }
  return out;
}

}  // namespace

bool ParseRequest(const std::string& line, Request* out, std::string* error) {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::string trimmed = util::Trim(line);
  if (trimmed.empty() || trimmed[0] == '#') return fail("empty");
  std::vector<std::string> tokens = util::Split(trimmed, " \t");
  Request request;
  const std::string& verb = tokens[0];
  if (verb == "GENERATE") {
    request.verb = Verb::kGenerate;
  } else if (verb == "RELOAD") {
    request.verb = Verb::kReload;
  } else if (verb == "STATS") {
    request.verb = Verb::kStats;
  } else if (verb == "QUIT") {
    request.verb = Verb::kQuit;
  } else {
    return fail("unknown verb '" + verb + "'");
  }
  for (size_t i = 1; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return fail("malformed pair '" + token + "'");
    }
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    bool ok = true;
    if (key == "model") {
      ok = !value.empty();
      request.model = value;
    } else if (key == "nodes") {
      int64_t n = 0;
      ok = ParseInt64(value, &n) && n >= 0 && n <= INT_MAX;
      request.nodes = static_cast<int>(n);
    } else if (key == "edges") {
      ok = ParseInt64(value, &request.edges) && request.edges >= 0;
    } else if (key == "seed") {
      ok = ParseUint64(value, &request.seed);
    } else if (key == "deadline_ms") {
      ok = ParseDouble(value, &request.deadline_ms) &&
           request.deadline_ms >= 0.0;
    } else if (key == "out") {
      ok = !value.empty();
      request.out = value;
    } else if (key == "hier") {
      int64_t flag = 0;
      ok = ParseInt64(value, &flag) && (flag == 0 || flag == 1);
      request.hierarchical = flag == 1;
    } else if (key == "checkpoint") {
      ok = !value.empty();
      request.checkpoint = value;
    } else {
      return fail("unknown key '" + key + "'");
    }
    if (!ok) return fail("bad value for '" + key + "'");
  }
  if (request.verb == Verb::kReload && request.checkpoint.empty()) {
    return fail("RELOAD requires checkpoint=PATH");
  }
  *out = request;
  return true;
}

const char* StatusName(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk:
      return "ok";
    case ResponseStatus::kDegraded:
      return "degraded";
    case ResponseStatus::kShed:
      return "shed";
    case ResponseStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case ResponseStatus::kError:
      return "error";
  }
  return "error";
}

std::string FormatResponse(const Response& response) {
  std::ostringstream out;
  out << "id=" << response.id << " status=" << StatusName(response.status);
  if (!response.model.empty()) {
    out << " model=" << SanitizeToken(response.model);
  }
  if (response.completed()) {
    out << " nodes=" << response.nodes << " edges=" << response.edges;
  }
  char latency[32];
  std::snprintf(latency, sizeof(latency), "%.3f", response.latency_ms);
  out << " latency_ms=" << latency;
  if (response.retries > 0) out << " retries=" << response.retries;
  if (!response.detail.empty()) {
    out << " detail=" << SanitizeToken(response.detail);
  }
  return out.str();
}

bool ParseResponse(const std::string& line, Response* out) {
  std::vector<std::string> tokens = util::Split(util::Trim(line), " \t");
  if (tokens.empty()) return false;
  Response response;
  bool saw_id = false;
  bool saw_status = false;
  for (const std::string& token : tokens) {
    size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) return false;
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    if (key == "id") {
      if (!ParseUint64(value, &response.id)) return false;
      saw_id = true;
    } else if (key == "status") {
      saw_status = true;
      if (value == "ok") {
        response.status = ResponseStatus::kOk;
      } else if (value == "degraded") {
        response.status = ResponseStatus::kDegraded;
      } else if (value == "shed") {
        response.status = ResponseStatus::kShed;
      } else if (value == "deadline_exceeded") {
        response.status = ResponseStatus::kDeadlineExceeded;
      } else if (value == "error") {
        response.status = ResponseStatus::kError;
      } else {
        return false;
      }
    } else if (key == "model") {
      response.model = value;
    } else if (key == "nodes") {
      int64_t n = 0;
      if (!ParseInt64(value, &n)) return false;
      response.nodes = static_cast<int>(n);
    } else if (key == "edges") {
      if (!ParseInt64(value, &response.edges)) return false;
    } else if (key == "latency_ms") {
      if (!ParseDouble(value, &response.latency_ms)) return false;
    } else if (key == "retries") {
      int64_t n = 0;
      if (!ParseInt64(value, &n)) return false;
      response.retries = static_cast<int>(n);
    } else if (key == "detail") {
      response.detail = value;
    } else if (key == "stats") {
      // STATS responses append a JSON payload; tolerated, not parsed here.
      break;
    } else {
      return false;
    }
  }
  if (!saw_id || !saw_status) return false;
  *out = response;
  return true;
}

}  // namespace cpgan::serve
