#ifndef CPGAN_UTIL_DEADLINE_H_
#define CPGAN_UTIL_DEADLINE_H_

#include <chrono>
#include <limits>

namespace cpgan::util {

/// A point in time a request must finish by, on the same steady clock as
/// util::Timer so serving latencies and deadlines are directly comparable.
/// A default-constructed Deadline never expires.
class Deadline {
 public:
  Deadline() = default;

  /// Deadline `ms` milliseconds from now (ms <= 0 yields an already-expired
  /// deadline, which callers use to force the timeout path in tests).
  /// Budgets at or past the end of the clock's range (about 292 years of
  /// nanoseconds), +inf and NaN included, saturate at the clock's maximum.
  static Deadline AfterMillis(double ms) {
    using Ticks = std::chrono::duration<double, Clock::period>;
    Deadline d;
    d.has_deadline_ = true;
    const Clock::time_point now = Clock::now();
    const Ticks budget = std::chrono::duration<double, std::milli>(ms);
    if (ms <= 0.0) {
      d.at_ = now;
    } else if (budget < Ticks(Clock::time_point::max() - now)) {
      d.at_ = now + std::chrono::duration_cast<Clock::duration>(budget);
    } else {
      d.at_ = Clock::time_point::max();
    }
    return d;
  }

  bool unlimited() const { return !has_deadline_; }

  bool expired() const { return has_deadline_ && Clock::now() >= at_; }

  /// Milliseconds until expiry (negative once expired; +inf when unlimited).
  double remaining_ms() const {
    if (!has_deadline_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double, std::milli>(at_ - Clock::now())
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  bool has_deadline_ = false;
  Clock::time_point at_{};
};

}  // namespace cpgan::util

#endif  // CPGAN_UTIL_DEADLINE_H_
