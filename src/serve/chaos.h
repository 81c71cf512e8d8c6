#ifndef CPGAN_SERVE_CHAOS_H_
#define CPGAN_SERVE_CHAOS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace cpgan::serve {

/// Deterministic fault-injection plan for the serving runtime — the serving
/// analogue of train::FaultPlan. Periodic faults key off the request
/// sequence number assigned at submission (`seq % every == offset`), so a
/// given request mix hits the same faults on every run regardless of thread
/// interleaving. Countdown faults (load/log failures) are consumed
/// first-come-first-served by design: they model "the next N attempts fail",
/// and the retry/backoff contract must hold no matter which attempt eats the
/// fault.
///
/// The chaos suite (tests/serve/) drives every plan class through the server
/// and asserts the degradation contract: never crash, never deadlock, every
/// request answered, and every non-ok answer explicitly flagged shed /
/// degraded / deadline_exceeded / error.
struct ChaosPlan {
  /// Slow request: injected client-side stall (before the decode, polling
  /// the deadline) on matching requests. Exercises the deadline watchdog.
  int slow_every = 0;  // 0 disables
  int slow_offset = 0;
  double slow_ms = 50.0;

  /// Worker stall: injected uninterruptible stall just before the decode on
  /// matching requests, wedging the worker that runs it. Once every worker
  /// is wedged, this exercises queue buildup and load shedding.
  int stall_every = 0;  // 0 disables
  int stall_offset = 0;
  double stall_ms = 100.0;

  /// Allocation pressure: matching requests are charged this many phantom
  /// bytes against the memory budget (util::MemoryTracker::BudgetPressure).
  /// Exercises the degradation ladder.
  int alloc_every = 0;  // 0 disables
  int alloc_offset = 0;
  int64_t alloc_bytes = 0;

  /// Failed model load: the next `load_failures` model (re)load attempts
  /// fail transiently before validation. Exercises registry retry/backoff
  /// and serve-the-old-model semantics.
  int load_failures = 0;

  /// Flaky request log: the next `log_failures` request-log appends fail
  /// transiently. Exercises per-request I/O retry.
  int log_failures = 0;

  bool Any() const {
    return slow_every > 0 || stall_every > 0 || alloc_every > 0 ||
           load_failures > 0 || log_failures > 0;
  }
};

/// Thread-safe runtime over a ChaosPlan. Periodic queries are pure functions
/// of the sequence number; countdown faults decrement atomically.
class ChaosInjector {
 public:
  ChaosInjector() : ChaosInjector(ChaosPlan{}) {}
  explicit ChaosInjector(const ChaosPlan& plan)
      : plan_(plan),
        load_faults_(plan.load_failures),
        log_faults_(plan.log_failures) {}

  const ChaosPlan& plan() const { return plan_; }

  /// Replaces the plan and re-arms the countdown faults. Not synchronized
  /// with concurrent consumers — call before serving starts.
  void Reset(const ChaosPlan& plan) {
    plan_ = plan;
    load_faults_.store(plan.load_failures, std::memory_order_relaxed);
    log_faults_.store(plan.log_failures, std::memory_order_relaxed);
  }

  /// Milliseconds of pre-decode stall for request `seq` (0 = none).
  double SlowDelayMs(uint64_t seq) const {
    return Matches(plan_.slow_every, plan_.slow_offset, seq) ? plan_.slow_ms
                                                             : 0.0;
  }

  /// Milliseconds of worker stall for request `seq` (0 = none).
  double StallDelayMs(uint64_t seq) const {
    return Matches(plan_.stall_every, plan_.stall_offset, seq) ? plan_.stall_ms
                                                               : 0.0;
  }

  /// Phantom bytes charged against the memory budget for request `seq`.
  int64_t AllocPressureBytes(uint64_t seq) const {
    return Matches(plan_.alloc_every, plan_.alloc_offset, seq)
               ? plan_.alloc_bytes
               : 0;
  }

  /// True if this model-load attempt should fail (consumes one fault).
  bool ConsumeLoadFault() { return Consume(&load_faults_); }

  /// True if this log append should fail (consumes one fault).
  bool ConsumeLogFault() { return Consume(&log_faults_); }

  int pending_load_faults() const {
    return load_faults_.load(std::memory_order_relaxed);
  }
  int pending_log_faults() const {
    return log_faults_.load(std::memory_order_relaxed);
  }

 private:
  static bool Matches(int every, int offset, uint64_t seq) {
    return every > 0 && seq % static_cast<uint64_t>(every) ==
                            static_cast<uint64_t>(offset % every);
  }

  static bool Consume(std::atomic<int>* remaining) {
    int current = remaining->load(std::memory_order_relaxed);
    while (current > 0) {
      if (remaining->compare_exchange_weak(current, current - 1,
                                           std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  ChaosPlan plan_;
  std::atomic<int> load_faults_;
  std::atomic<int> log_faults_;
};

}  // namespace cpgan::serve

#endif  // CPGAN_SERVE_CHAOS_H_
