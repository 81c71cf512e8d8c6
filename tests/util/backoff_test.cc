// Retry/backoff and deadline primitives of the resilience layer: delay
// schedule shape, jitter bounds, retry accounting, injected AtomicWriteFile
// faults, and Deadline expiry semantics.

#include "util/backoff.h"

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/deadline.h"
#include "util/fileio.h"

namespace cpgan::util {
namespace {

TEST(Backoff, DelayScheduleIsExponentialAndCapped) {
  BackoffPolicy policy;
  policy.initial_delay_ms = 2.0;
  policy.multiplier = 3.0;
  policy.max_delay_ms = 10.0;
  policy.jitter = 0.0;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(policy, 0, rng), 2.0);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(policy, 1, rng), 6.0);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(policy, 2, rng), 10.0);  // capped at 18 -> 10
  EXPECT_DOUBLE_EQ(BackoffDelayMs(policy, 9, rng), 10.0);
}

TEST(Backoff, JitterStaysWithinFraction) {
  BackoffPolicy policy;
  policy.initial_delay_ms = 8.0;
  policy.multiplier = 1.0;
  policy.jitter = 0.5;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    double delay = BackoffDelayMs(policy, 0, rng);
    EXPECT_GT(delay, 8.0 * 0.5 - 1e-9);
    EXPECT_LE(delay, 8.0);
  }
}

TEST(Backoff, RetrySucceedsAfterTransientFailures) {
  BackoffPolicy policy;
  policy.max_attempts = 5;
  Rng rng(3);
  int calls = 0;
  std::vector<double> sleeps;
  RetryResult result = RetryWithBackoff(
      policy, rng, [&] { return ++calls >= 3; },
      [&](double ms) { sleeps.push_back(ms); });
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(result.retries(), 2);
  EXPECT_EQ(calls, 3);
  ASSERT_EQ(sleeps.size(), 2u);  // sleeps only between attempts
  EXPECT_GT(result.slept_ms, 0.0);
}

TEST(Backoff, RetryGivesUpAfterMaxAttempts) {
  BackoffPolicy policy;
  policy.max_attempts = 3;
  Rng rng(3);
  int calls = 0;
  RetryResult result = RetryWithBackoff(
      policy, rng, [&] { ++calls; return false; }, [](double) {});
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(calls, 3);
}

TEST(Backoff, FirstTrySuccessSleepsNothing) {
  BackoffPolicy policy;
  Rng rng(3);
  bool slept = false;
  RetryResult result = RetryWithBackoff(
      policy, rng, [] { return true; }, [&](double) { slept = true; });
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(result.retries(), 0);
  EXPECT_FALSE(slept);
}

TEST(Backoff, InjectedAtomicWriteFailuresAreConsumedByRetry) {
  std::string path = ::testing::TempDir() + "/backoff_inject.txt";
  auto write = [&path] {
    return AtomicWriteFile(path, [](std::FILE* f) {
      return std::fprintf(f, "payload\n") > 0;
    });
  };
  InjectAtomicWriteFailures(2);
  EXPECT_EQ(PendingAtomicWriteFailures(), 2);
  BackoffPolicy policy;
  policy.max_attempts = 4;
  Rng rng(11);
  RetryResult result = RetryWithBackoff(policy, rng, write, [](double) {});
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.attempts, 3);  // two injected failures, then success
  EXPECT_EQ(PendingAtomicWriteFailures(), 0);
  EXPECT_TRUE(FileExists(path));
  std::remove(path.c_str());
}

TEST(Backoff, ExhaustedInjectionLeavesNoFile) {
  std::string path = ::testing::TempDir() + "/backoff_inject_fail.txt";
  std::remove(path.c_str());
  InjectAtomicWriteFailures(10);
  BackoffPolicy policy;
  policy.max_attempts = 2;
  Rng rng(11);
  RetryResult result = RetryWithBackoff(
      policy, rng,
      [&path] {
        return AtomicWriteFile(path, [](std::FILE*) { return true; });
      },
      [](double) {});
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(FileExists(path));
  InjectAtomicWriteFailures(0);  // clear leftovers for other tests
  EXPECT_EQ(PendingAtomicWriteFailures(), 0);
}

TEST(Deadline, DefaultNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(d.remaining_ms() > 1e12);
}

TEST(Deadline, NonPositiveBudgetExpiresImmediately) {
  EXPECT_TRUE(Deadline::AfterMillis(0.0).expired());
  EXPECT_TRUE(Deadline::AfterMillis(-5.0).expired());
}

TEST(Deadline, FutureDeadlineNotYetExpired) {
  Deadline d = Deadline::AfterMillis(60000.0);
  EXPECT_FALSE(d.unlimited());
  EXPECT_FALSE(d.expired());
  double remaining = d.remaining_ms();
  EXPECT_GT(remaining, 0.0);
  EXPECT_LE(remaining, 60000.0);
}

TEST(Deadline, BudgetsPastTheClockRangeSaturate) {
  // 1e13 ms is past the int64-nanosecond steady clock's range; a plain
  // conversion overflows into a deadline that has already expired.
  for (double ms : {1e13, 1e300, std::numeric_limits<double>::infinity()}) {
    Deadline d = Deadline::AfterMillis(ms);
    EXPECT_FALSE(d.unlimited()) << ms;
    EXPECT_FALSE(d.expired()) << ms;
    EXPECT_GT(d.remaining_ms(), 1e12) << ms;
  }
}

}  // namespace
}  // namespace cpgan::util
