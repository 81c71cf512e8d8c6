#ifndef CPGAN_SERVE_PROTOCOL_H_
#define CPGAN_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>

namespace cpgan::serve {

/// \file
/// Line protocol of the generation server (docs/SERVING.md).
///
/// One request per line, whitespace-separated: a verb followed by key=value
/// pairs in any order. Unknown keys fail the parse (catching typos like
/// `node=128` early instead of silently ignoring them).
///
///   GENERATE [model=NAME] [nodes=N] [edges=M] [seed=S]
///            [deadline_ms=D] [out=PATH] [hier=0|1]
///   RELOAD   model=NAME checkpoint=PATH
///   STATS
///   QUIT
///
/// One response per line, key=value pairs:
///
///   id=7 status=ok model=default nodes=128 edges=512 latency_ms=12.41
///   id=8 status=shed detail=queue_full
///
/// `status` is the serving contract: every accepted request terminates in
/// exactly one of ok / degraded (reduced-fidelity decode under pressure) /
/// shed (rejected before any work) / deadline_exceeded (the deadline passed
/// before the response was ready; checked at phase boundaries) / error.

enum class Verb {
  kGenerate,
  kReload,
  kStats,
  kQuit,
};

struct Request {
  Verb verb = Verb::kGenerate;

  /// Registry name of the model to decode from. ParseRequest accepts only
  /// valid UTF-8, since the request log writes it into a JSON string.
  std::string model = "default";

  /// Requested graph size; 0 = the model's observed node/edge counts.
  int nodes = 0;
  int64_t edges = 0;

  /// Per-request RNG stream seed: responses are bitwise identical for the
  /// same (model checkpoint, seed, degradation level).
  uint64_t seed = 0;

  /// Deadline budget in milliseconds. Negative (the default) = the server's
  /// default deadline; 0 = unlimited.
  double deadline_ms = -1.0;

  /// When set, the generated edge list is written here (atomically, with
  /// transient-failure retries) instead of being dropped after evaluation.
  std::string out;

  /// `hier=1`: assemble hierarchically (community skeleton, per-community
  /// decodes, stitched cross edges — docs/INTERNALS.md, "Hierarchical
  /// assembly"). The deadline is polled between decode waves and at each
  /// community's chunk boundaries, so a long hierarchical decode stops at
  /// the next chunk boundary after its deadline.
  bool hierarchical = false;

  /// RELOAD only: checkpoint file to hot-swap in.
  std::string checkpoint;
};

/// Parses one request line. Returns false (with a human-readable reason in
/// `error`) on an unknown verb, malformed pair, unknown key, or bad value;
/// `out` is untouched on failure. Blank lines and `#` comments fail with
/// error "empty" — the stdio front skips them without responding.
bool ParseRequest(const std::string& line, Request* out, std::string* error);

enum class ResponseStatus {
  kOk,
  kDegraded,
  kShed,
  kDeadlineExceeded,
  kError,
};

/// Wire name of a status ("ok", "degraded", "shed", "deadline_exceeded",
/// "error").
const char* StatusName(ResponseStatus status);

struct Response {
  uint64_t id = 0;
  ResponseStatus status = ResponseStatus::kError;
  std::string model;
  int nodes = 0;
  int64_t edges = 0;
  double latency_ms = 0.0;

  /// Transient-I/O retries spent on this request (output writes, log
  /// appends).
  int retries = 0;

  /// Machine-readable reason for non-ok statuses (single token; spaces are
  /// sanitized to '_' so the line stays parseable).
  std::string detail;

  bool completed() const {
    return status == ResponseStatus::kOk || status == ResponseStatus::kDegraded;
  }
};

/// Serializes a response to its single-line wire form (no trailing newline).
std::string FormatResponse(const Response& response);

/// Parses a response line produced by FormatResponse (tests and client
/// tooling). Returns false on a malformed line.
bool ParseResponse(const std::string& line, Response* out);

}  // namespace cpgan::serve

#endif  // CPGAN_SERVE_PROTOCOL_H_
