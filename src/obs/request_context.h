#ifndef CPGAN_OBS_REQUEST_CONTEXT_H_
#define CPGAN_OBS_REQUEST_CONTEXT_H_

#include <cstdint>

namespace cpgan::obs {

/// \file
/// Request-scoped trace context (docs/OBSERVABILITY.md).
///
/// A RequestContext carries a request id through everything that runs on
/// behalf of one serving request: the serve worker installs it with
/// ScopedRequestContext, util::ThreadPool captures it when a parallel region
/// is posted and re-installs it on every pool thread that executes chunks of
/// that region, and trace spans stamp the active id on each completed Chrome
/// trace event. WriteChromeTrace then groups spans by request instead of
/// only by recording thread.
///
/// Like the rest of the telemetry layer this is observational only: nothing
/// reads the context to change a numeric result. It lives in cpgan_util
/// (next to obs/metrics.cc) so the thread pool can propagate it without a
/// cpgan_util <-> cpgan_obs cycle.

/// The context payload. `id` 0 means "no request" (the idle/default state).
struct RequestContext {
  uint64_t id = 0;

  bool active() const { return id != 0; }
};

/// The context installed on the calling thread (all-zero when none).
RequestContext CurrentRequestContext();

/// Shorthand for CurrentRequestContext().id.
uint64_t CurrentRequestId();

/// RAII installer: swaps `context` in for the calling thread and restores
/// the previous context on destruction, so nesting (a request that fans out
/// sub-requests) unwinds correctly.
class ScopedRequestContext {
 public:
  explicit ScopedRequestContext(const RequestContext& context);
  ~ScopedRequestContext();

  ScopedRequestContext(const ScopedRequestContext&) = delete;
  ScopedRequestContext& operator=(const ScopedRequestContext&) = delete;

 private:
  RequestContext previous_;
};

}  // namespace cpgan::obs

#endif  // CPGAN_OBS_REQUEST_CONTEXT_H_
