#include "util/logging.h"

#include <atomic>
#include <cstdio>
#include <ctime>
#include <mutex>

namespace cpgan::util {
namespace {

LogLevel g_min_level = LogLevel::kInfo;

// Serializes whole lines on stderr. Leaked so logging stays usable during
// static destruction.
std::mutex& SinkMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

/// Small sequential id for the calling thread (0 for the first thread that
/// logs, 1 for the next, ...) — far more readable than pthread ids.
int ThreadId() {
  static std::atomic<int> next_id{0};
  thread_local int id = next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// "2026-08-06T12:34:56Z" for the current wall-clock time (UTC). The wall
/// clock is only used for log prefixes; all measurement uses the monotonic
/// steady clock (see util/timer.h).
void FormatTimestamp(char* buffer, size_t size) {
  std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  std::strftime(buffer, size, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
}

}  // namespace

void SetLogLevel(LogLevel level) { g_min_level = level; }

LogLevel GetLogLevel() { return g_min_level; }

LogLevel ParseLogLevel(const std::string& name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "warning" || name == "warn") return LogLevel::kWarning;
  if (name == "error") return LogLevel::kError;
  return LogLevel::kInfo;
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  char timestamp[24];
  FormatTimestamp(timestamp, sizeof(timestamp));
  stream_ << timestamp << " " << LevelName(level) << " [t" << ThreadId()
          << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (level_ < g_min_level) return;
  std::string message = stream_.str();
  std::lock_guard<std::mutex> lock(SinkMutex());
  std::fprintf(stderr, "%s\n", message.c_str());
}

}  // namespace internal
}  // namespace cpgan::util
