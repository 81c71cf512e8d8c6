// Chaos suite: drives every ChaosPlan fault class through the server and
// asserts the degradation contract — never crash, never deadlock, every
// submitted request gets exactly one response, and every non-ok response is
// explicitly flagged shed / degraded / deadline_exceeded / error. Run under
// ASan and TSan via -DCPGAN_SANITIZE (docs/TESTING.md).

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/chaos.h"
#include "serve/server.h"
#include "tests/serve/serve_test_util.h"
#include "util/memory_tracker.h"

namespace cpgan::serve {
namespace {

bool Flagged(const Response& response) {
  switch (response.status) {
    case ResponseStatus::kOk:
    case ResponseStatus::kDegraded:
    case ResponseStatus::kShed:
    case ResponseStatus::kDeadlineExceeded:
    case ResponseStatus::kError:
      return true;
  }
  return false;
}

/// Submits `per_thread` copies of `request` from `threads` client threads
/// and returns every response (one per submission — the never-lose-a-request
/// half of the contract is the fact that this function returns at all).
std::vector<Response> Burst(Server& server, const Request& request,
                            int threads, int per_thread) {
  std::vector<std::vector<Response>> collected(threads);
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&server, &request, &collected, t, per_thread] {
      for (int i = 0; i < per_thread; ++i) {
        Request r = request;
        r.seed = static_cast<uint64_t>(t) * 1000 + i;
        collected[t].push_back(server.Submit(r));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  std::vector<Response> all;
  for (const auto& batch : collected) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  return all;
}

class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::MemoryTracker::Global().SetBudgetBytes(0);
  }

  ServerOptions BaseOptions() {
    ServerOptions options;
    options.num_workers = 2;
    options.queue_capacity = 4;
    options.io_backoff.initial_delay_ms = 0.1;
    options.io_backoff.max_delay_ms = 1.0;
    return options;
  }
};

TEST_F(ChaosTest, InjectorIsDeterministicBySequence) {
  ChaosPlan plan;
  plan.slow_every = 3;
  plan.slow_offset = 1;
  plan.slow_ms = 7.0;
  plan.load_failures = 2;
  ChaosInjector injector(plan);
  EXPECT_DOUBLE_EQ(injector.SlowDelayMs(1), 7.0);
  EXPECT_DOUBLE_EQ(injector.SlowDelayMs(4), 7.0);
  EXPECT_DOUBLE_EQ(injector.SlowDelayMs(2), 0.0);
  EXPECT_DOUBLE_EQ(injector.SlowDelayMs(3), 0.0);
  EXPECT_TRUE(injector.ConsumeLoadFault());
  EXPECT_TRUE(injector.ConsumeLoadFault());
  EXPECT_FALSE(injector.ConsumeLoadFault());  // exhausted
  EXPECT_EQ(injector.pending_load_faults(), 0);
}

TEST_F(ChaosTest, SlowRequestsExceedDeadlinesOthersComplete) {
  ServerOptions options = BaseOptions();
  // Wide margins so the split survives sanitizer builds: an un-slowed
  // decode takes ~4 ms native and ~20x that under TSan — still far below
  // the deadline — while slowed requests overshoot it by 4x.
  options.default_deadline_ms = 150.0;
  Server server(&SharedServeRegistry(), options);
  ChaosPlan plan;
  plan.slow_every = 2;   // every even request stalls past its deadline
  plan.slow_ms = 600.0;
  server.SetChaos(plan);
  server.Start();
  std::vector<Response> responses = Burst(server, Request{}, 3, 4);

  int deadline_exceeded = 0;
  int completed = 0;
  for (const Response& response : responses) {
    ASSERT_TRUE(Flagged(response));
    EXPECT_NE(response.status, ResponseStatus::kError) << response.detail;
    deadline_exceeded += response.status == ResponseStatus::kDeadlineExceeded;
    completed += response.completed();
    if (response.id % 2 == 0) {
      // Slowed: the 150 ms deadline ended it, not the 600 ms stall.
      EXPECT_EQ(response.status, ResponseStatus::kDeadlineExceeded)
          << "id=" << response.id << " " << response.detail;
      EXPECT_LT(response.latency_ms, plan.slow_ms) << "id=" << response.id;
    }
  }
  EXPECT_EQ(responses.size(), 12u);
  EXPECT_GT(deadline_exceeded, 0);
  EXPECT_GT(completed, 0);

  // Recovery: with the burst drained, an unhurried request completes.
  Request calm;
  calm.deadline_ms = 0.0;  // unlimited
  calm.seed = 99;
  Response after = server.Submit(calm);
  EXPECT_TRUE(after.completed()) << after.detail;
  server.Stop();
}

TEST_F(ChaosTest, WorkerStallShedsOverflowThenRecovers) {
  ServerOptions options = BaseOptions();
  options.num_workers = 1;     // one wedged worker stalls the whole engine
  options.queue_capacity = 2;
  Server server(&SharedServeRegistry(), options);
  ChaosPlan plan;
  plan.stall_every = 1;        // every decode wedges its worker first
  plan.stall_ms = 30.0;
  server.SetChaos(plan);
  server.Start();
  std::vector<Response> responses = Burst(server, Request{}, 8, 2);

  int shed = 0;
  int completed = 0;
  for (const Response& response : responses) {
    ASSERT_TRUE(Flagged(response));
    EXPECT_NE(response.status, ResponseStatus::kError) << response.detail;
    shed += response.status == ResponseStatus::kShed;
    completed += response.completed();
  }
  EXPECT_EQ(responses.size(), 16u);
  EXPECT_GT(shed, 0) << "flood over a capacity-2 queue must shed";
  EXPECT_GT(completed, 0);

  Response after = server.Submit(Request{});
  EXPECT_TRUE(after.completed()) << after.detail;
  server.Stop();
}

TEST_F(ChaosTest, AllocationPressureDegradesButCompletes) {
  int64_t live = util::MemoryTracker::Global().live_bytes();
  ServerOptions options = BaseOptions();
  options.memory_budget_bytes = live * 10 + (int64_t{1} << 20);
  Server server(&SharedServeRegistry(), options);
  ChaosPlan plan;
  plan.alloc_every = 1;  // every request runs over the advisory budget
  plan.alloc_bytes = options.memory_budget_bytes * 2;
  server.SetChaos(plan);
  server.Start();
  std::vector<Response> responses = Burst(server, Request{}, 2, 3);
  for (const Response& response : responses) {
    ASSERT_EQ(response.status, ResponseStatus::kDegraded) << response.detail;
    EXPECT_TRUE(response.completed());
    EXPECT_GT(response.nodes, 0);
  }
  EXPECT_GE(server.Stats().degraded, 6u);
  server.Stop();

  // Recovery: with the budget cleared, a fresh server serves full fidelity.
  util::MemoryTracker::Global().SetBudgetBytes(0);
  Server recovered(&SharedServeRegistry(), BaseOptions());
  recovered.Start();
  Response after = recovered.Submit(Request{});
  EXPECT_EQ(after.status, ResponseStatus::kOk) << after.detail;
  recovered.Stop();
}

TEST_F(ChaosTest, TransientLoadFailuresRetryUntilTheSwapLands) {
  ModelRegistry registry;
  std::string error;
  ASSERT_TRUE(registry.AddModel(ServeTestSpec(), &error)) << error;
  uint64_t before = registry.Find("default")->version();

  ChaosPlan plan;
  plan.load_failures = 2;
  ChaosInjector chaos(plan);
  util::BackoffPolicy backoff;
  backoff.max_attempts = 4;
  backoff.initial_delay_ms = 0.1;
  ASSERT_TRUE(registry.Reload("default", ServeTestCheckpoint(), backoff,
                              &error, &chaos))
      << error;
  EXPECT_EQ(registry.Find("default")->version(), before + 1);
  EXPECT_EQ(chaos.pending_load_faults(), 0);
}

TEST_F(ChaosTest, ExhaustedLoadRetriesKeepOldModelServing) {
  ModelRegistry registry;
  std::string error;
  ASSERT_TRUE(registry.AddModel(ServeTestSpec(), &error)) << error;
  uint64_t before = registry.Find("default")->version();

  ChaosPlan plan;
  plan.load_failures = 10;  // outage outlasts the retry budget
  ChaosInjector chaos(plan);
  util::BackoffPolicy backoff;
  backoff.max_attempts = 2;
  backoff.initial_delay_ms = 0.1;
  EXPECT_FALSE(registry.Reload("default", ServeTestCheckpoint(), backoff,
                               &error, &chaos));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(registry.Find("default")->version(), before);

  // The old model still serves correctly.
  Server server(&registry, BaseOptions());
  server.Start();
  Response response = server.Submit(Request{});
  EXPECT_EQ(response.status, ResponseStatus::kOk) << response.detail;
  server.Stop();
}

TEST_F(ChaosTest, CombinedChaosNeverLosesOrMislabelsARequest) {
  std::string dir = ServeTempDir("chaos_combined");
  ServerOptions options = BaseOptions();
  options.num_workers = 2;
  options.queue_capacity = 3;
  options.default_deadline_ms = 40.0;
  options.request_log = dir + "/requests.jsonl";
  Server server(&SharedServeRegistry(), options);
  ChaosPlan plan;
  plan.slow_every = 3;
  plan.slow_ms = 25.0;
  plan.stall_every = 4;
  plan.stall_ms = 20.0;
  plan.alloc_every = 5;
  plan.alloc_bytes = int64_t{1} << 40;  // guaranteed over any budget
  plan.log_failures = 3;
  server.SetChaos(plan);
  // Give the alloc faults a budget to run over.
  util::MemoryTracker::Global().SetBudgetBytes(
      util::MemoryTracker::Global().live_bytes() * 10 + (int64_t{1} << 20));
  server.Start();

  std::vector<Response> responses = Burst(server, Request{}, 6, 4);
  ASSERT_EQ(responses.size(), 24u);
  uint64_t ok = 0, degraded = 0, shed = 0, expired = 0, errors = 0;
  for (const Response& response : responses) {
    ASSERT_TRUE(Flagged(response));
    ok += response.status == ResponseStatus::kOk;
    degraded += response.status == ResponseStatus::kDegraded;
    shed += response.status == ResponseStatus::kShed;
    expired += response.status == ResponseStatus::kDeadlineExceeded;
    errors += response.status == ResponseStatus::kError;
  }
  EXPECT_EQ(errors, 0u);
  EXPECT_EQ(ok + degraded + shed + expired, 24u);

  // Terminal accounting matches: every received request ended in exactly
  // one bucket.
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.received, 24u);
  EXPECT_EQ(stats.completed + stats.shed + stats.deadline_exceeded +
                stats.errors,
            24u);
  // The flaky log appends were retried (3 injected failures).
  EXPECT_GE(stats.retries, 3u);

  // Recover: chaos periodic faults still fire, but an unhurried request
  // always terminates with a completed response.
  Request calm;
  calm.deadline_ms = 0.0;
  Response after = server.Submit(calm);
  EXPECT_TRUE(after.completed()) << after.detail;
  server.Stop();

  // Every response (including shed/expired) reached the request log.
  std::string log = SlurpFile(options.request_log);
  int lines = 0;
  for (char c : log) lines += c == '\n';
  EXPECT_EQ(lines, 25);
}

}  // namespace
}  // namespace cpgan::serve
