#include "util/backoff.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "util/check.h"

namespace cpgan::util {

double BackoffDelayMs(const BackoffPolicy& policy, int attempt, Rng& rng) {
  CPGAN_CHECK_GE(attempt, 0);
  double delay = policy.initial_delay_ms *
                 std::pow(policy.multiplier, static_cast<double>(attempt));
  delay = std::min(delay, policy.max_delay_ms);
  double jitter = std::clamp(policy.jitter, 0.0, 1.0);
  // The jittered draw happens even for jitter == 0 so the Rng stream a test
  // observes does not depend on the policy's jitter setting.
  double u = rng.Uniform();
  return std::max(0.0, delay * (1.0 - jitter * u));
}

RetryResult RetryWithBackoff(const BackoffPolicy& policy, Rng& rng,
                             const std::function<bool()>& op,
                             const std::function<void(double)>& sleeper) {
  RetryResult result;
  int max_attempts = std::max(1, policy.max_attempts);
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    ++result.attempts;
    if (op()) {
      result.ok = true;
      return result;
    }
    if (attempt + 1 == max_attempts) break;
    double delay_ms = BackoffDelayMs(policy, attempt, rng);
    result.slept_ms += delay_ms;
    if (sleeper) {
      sleeper(delay_ms);
    } else if (delay_ms > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(delay_ms));
    }
  }
  return result;
}

}  // namespace cpgan::util
