// Unit tests for the deterministic work-sharing thread pool: static
// chunking, empty/degenerate ranges, nested-call safety, exception
// propagation, deterministic reductions, concurrent callers, and
// global-pool resizing.

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace {

using cpgan::util::ParallelSum;
using cpgan::util::ThreadPool;

TEST(ThreadPoolTest, NumChunksIsThreadCountIndependent) {
  EXPECT_EQ(ThreadPool::NumChunks(0, 0, 4), 0);
  EXPECT_EQ(ThreadPool::NumChunks(5, 3, 4), 0);
  EXPECT_EQ(ThreadPool::NumChunks(0, 1, 4), 1);
  EXPECT_EQ(ThreadPool::NumChunks(0, 4, 4), 1);
  EXPECT_EQ(ThreadPool::NumChunks(0, 5, 4), 2);
  EXPECT_EQ(ThreadPool::NumChunks(3, 13, 4), 3);
}

TEST(ThreadPoolTest, EmptyRangeNeverInvokesBody) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, 0, 16, [&](int64_t, int64_t) { ++calls; });
  pool.ParallelFor(10, 10, 1, [&](int64_t, int64_t) { ++calls; });
  pool.ParallelFor(10, 5, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, GrainLargerThanRangeIsOneChunk) {
  ThreadPool pool(4);
  std::vector<std::pair<int64_t, int64_t>> chunks;
  pool.ParallelFor(2, 7, 1000, [&](int64_t b, int64_t e) {
    chunks.push_back({b, e});  // single chunk: no concurrent writers
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 2);
  EXPECT_EQ(chunks[0].second, 7);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 3, 8}) {
    ThreadPool pool(threads);
    for (int64_t grain : {1, 3, 64, 1000}) {
      const int64_t n = 997;
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      pool.ParallelFor(0, n, grain, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
      });
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads
                                     << " grain=" << grain;
      }
    }
  }
}

TEST(ThreadPoolTest, ChunkBoundariesMatchStaticSchedule) {
  ThreadPool pool(4);
  const int64_t begin = 5, end = 103, grain = 8;
  const int64_t nc = ThreadPool::NumChunks(begin, end, grain);
  std::vector<std::pair<int64_t, int64_t>> chunks(nc);
  pool.ParallelForChunked(begin, end, grain,
                          [&](int64_t b, int64_t e, int64_t c) {
                            chunks[c] = {b, e};  // disjoint slots
                          });
  for (int64_t c = 0; c < nc; ++c) {
    EXPECT_EQ(chunks[c].first, begin + c * grain);
    EXPECT_EQ(chunks[c].second, std::min(end, begin + (c + 1) * grain));
  }
}

TEST(ThreadPoolTest, NestedCallsRunInlineWithoutDeadlock) {
  ThreadPool pool(4);
  const int64_t outer = 8, inner = 100;
  std::vector<std::vector<int>> marks(outer, std::vector<int>(inner, 0));
  pool.ParallelFor(0, outer, 1, [&](int64_t ob, int64_t oe) {
    for (int64_t o = ob; o < oe; ++o) {
      // Nested region: must run inline on this thread, not deadlock.
      pool.ParallelFor(0, inner, 7, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) marks[o][i] += 1;
      });
    }
  });
  for (const auto& row : marks) {
    for (int m : row) ASSERT_EQ(m, 1);
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 100, 1,
                       [&](int64_t b, int64_t) {
                         if (b == 37) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must still be fully usable afterwards.
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(0, 100, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(ThreadPoolTest, ParallelSumBitwiseIdenticalAcrossThreadCounts) {
  const int64_t n = 100000;
  std::vector<float> values(n);
  cpgan::util::Rng rng(42);
  for (float& v : values) v = static_cast<float>(rng.Normal(0.0, 10.0));
  auto body = [&](int64_t b, int64_t e) {
    double acc = 0.0;
    for (int64_t i = b; i < e; ++i) acc += values[i];
    return acc;
  };
  ThreadPool::SetGlobalThreads(1);
  double serial = ParallelSum(0, n, 4096, body);
  for (int threads : {2, 4, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    double parallel = ParallelSum(0, n, 4096, body);
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
  ThreadPool::SetGlobalThreads(1);
}

TEST(ThreadPoolTest, ConcurrentCallersShareOnePool) {
  // Four threads post regions into one 4-thread pool at once. Whoever finds
  // the workers busy runs its region serially, so every caller must still
  // cover each index once, see the static chunk boundaries, reduce
  // bitwise-identically to a 1-thread pool, and see only its own exception.
  constexpr int kCallers = 4;
  constexpr int kRounds = 200;
  const int64_t n = 4099;
  std::vector<float> values(n);
  cpgan::util::Rng rng(7);
  for (float& v : values) v = static_cast<float>(rng.Normal(0.0, 10.0));
  auto sum_body = [&values](int64_t b, int64_t e) {
    double acc = 0.0;
    for (int64_t i = b; i < e; ++i) acc += values[i];
    return acc;
  };
  auto grain_of = [](int caller) { return static_cast<int64_t>(61 + caller); };

  ThreadPool::SetGlobalThreads(1);
  std::vector<double> serial_sums(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    serial_sums[c] = ParallelSum(c, n, grain_of(c), sum_body);
  }
  ThreadPool::SetGlobalThreads(4);
  ThreadPool& pool = ThreadPool::Global();

  std::vector<int> bad_hits(kCallers, 0);
  std::vector<int> bad_chunks(kCallers, 0);
  std::vector<int> bad_sums(kCallers, 0);
  std::vector<int> caught(kCallers, 0);
  std::vector<int> unexpected(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      const int64_t grain = grain_of(c);
      try {
        for (int round = 0; round < kRounds; ++round) {
          std::vector<std::atomic<int>> hits(n);
          for (auto& h : hits) h.store(0);
          pool.ParallelFor(0, n, grain, [&](int64_t b, int64_t e) {
            for (int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
          });
          for (const auto& h : hits) bad_hits[c] += h.load() != 1;

          const int64_t nc = ThreadPool::NumChunks(c, n, grain);
          std::vector<std::pair<int64_t, int64_t>> chunks(nc);
          pool.ParallelForChunked(c, n, grain,
                                  [&](int64_t b, int64_t e, int64_t k) {
                                    chunks[k] = {b, e};
                                  });
          for (int64_t k = 0; k < nc; ++k) {
            const int64_t b = c + k * grain;
            const std::pair<int64_t, int64_t> want(b, std::min(n, b + grain));
            bad_chunks[c] += chunks[k] != want;
          }

          bad_sums[c] += ParallelSum(c, n, grain, sum_body) != serial_sums[c];

          if (c == 0) {
            try {
              pool.ParallelFor(0, 100, 1, [](int64_t b, int64_t) {
                if (b == 37) throw std::runtime_error("boom");
              });
            } catch (const std::runtime_error&) {
              ++caught[c];
            }
          }
        }
      } catch (...) {
        ++unexpected[c];
      }
    });
  }
  for (std::thread& t : callers) t.join();
  ThreadPool::SetGlobalThreads(1);

  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(bad_hits[c], 0) << "caller " << c;
    EXPECT_EQ(bad_chunks[c], 0) << "caller " << c;
    EXPECT_EQ(bad_sums[c], 0) << "caller " << c;
    EXPECT_EQ(unexpected[c], 0) << "caller " << c;
    EXPECT_EQ(caught[c], c == 0 ? kRounds : 0) << "caller " << c;
  }
}

TEST(ThreadPoolTest, ThreadsFromEnvParsesAndClamps) {
  setenv("CPGAN_NUM_THREADS", "6", 1);
  EXPECT_EQ(ThreadPool::ThreadsFromEnv(), 6);
  setenv("CPGAN_NUM_THREADS", "0", 1);
  EXPECT_GE(ThreadPool::ThreadsFromEnv(), 1);  // invalid -> hardware default
  setenv("CPGAN_NUM_THREADS", "garbage", 1);
  EXPECT_GE(ThreadPool::ThreadsFromEnv(), 1);
  setenv("CPGAN_NUM_THREADS", "999999", 1);
  EXPECT_EQ(ThreadPool::ThreadsFromEnv(), ThreadPool::kMaxThreads);
  unsetenv("CPGAN_NUM_THREADS");
  EXPECT_GE(ThreadPool::ThreadsFromEnv(), 1);
}

TEST(ThreadPoolTest, SetGlobalThreadsResizes) {
  ThreadPool::SetGlobalThreads(3);
  EXPECT_EQ(ThreadPool::Global().num_threads(), 3);
  ThreadPool::SetGlobalThreads(-5);  // clamped
  EXPECT_EQ(ThreadPool::Global().num_threads(), 1);
  ThreadPool::SetGlobalThreads(1);
}

}  // namespace
