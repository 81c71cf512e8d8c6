#ifndef CPGAN_UTIL_BACKOFF_H_
#define CPGAN_UTIL_BACKOFF_H_

#include <functional>

#include "util/rng.h"

namespace cpgan::util {

/// Retry-with-exponential-backoff for transient failures (flaky disk
/// renames/fsyncs, model-load races, JSONL appends). The delay schedule is
/// deterministic given the Rng: attempt k sleeps
///
///   delay_k = min(initial_delay_ms * multiplier^k, max_delay_ms)
///             * (1 - jitter * u),  u ~ Uniform[0, 1)
///
/// so retries from concurrent callers decorrelate while tests that pass a
/// seeded Rng (and a fake sleeper) stay reproducible.
struct BackoffPolicy {
  /// Total attempts including the first (1 = no retries).
  int max_attempts = 4;

  double initial_delay_ms = 1.0;
  double multiplier = 2.0;
  double max_delay_ms = 100.0;

  /// Fraction of each delay randomized away, in [0, 1).
  double jitter = 0.5;
};

/// Delay before retry number `attempt` (0-based: the delay after the first
/// failure is attempt 0), jittered with `rng`.
double BackoffDelayMs(const BackoffPolicy& policy, int attempt, Rng& rng);

/// Outcome of RetryWithBackoff.
struct RetryResult {
  bool ok = false;
  /// Attempts actually made (1 when the first try succeeded).
  int attempts = 0;
  /// Total injected sleep in milliseconds.
  double slept_ms = 0.0;

  int retries() const { return attempts > 0 ? attempts - 1 : 0; }
};

/// Runs `op` up to policy.max_attempts times, sleeping a jittered
/// exponential delay between attempts, until it returns true. `sleeper`
/// overrides the real std::this_thread sleep (tests pass a no-op to keep the
/// suite fast). Callers count their own retries from the result.
RetryResult RetryWithBackoff(const BackoffPolicy& policy, Rng& rng,
                             const std::function<bool()>& op,
                             const std::function<void(double)>& sleeper = {});

}  // namespace cpgan::util

#endif  // CPGAN_UTIL_BACKOFF_H_
