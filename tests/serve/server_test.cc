// Server behavior under normal operation: per-seed bitwise determinism,
// concurrent decodes, deadline flagging, shedding when stopped, protocol
// dispatch (RELOAD / STATS / parse errors), warm-load equivalence, and the
// JSONL request log.

#include "serve/server.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/protocol.h"
#include "serve/registry.h"
#include "tests/serve/serve_test_util.h"
#include "util/memory_tracker.h"
#include "util/thread_pool.h"

namespace cpgan::serve {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::MemoryTracker::Global().SetBudgetBytes(0);
  }

  ServerOptions QuickOptions() {
    ServerOptions options;
    options.num_workers = 2;
    options.queue_capacity = 8;
    return options;
  }
};

TEST_F(ServerTest, GenerateIsBitwiseDeterministicPerSeed) {
  Server server(&SharedServeRegistry(), QuickOptions());
  server.Start();
  std::string dir = ServeTempDir("server_determinism");
  Request request;
  request.seed = 5;
  request.out = dir + "/a.txt";
  Response first = server.Submit(request);
  request.out = dir + "/b.txt";
  Response second = server.Submit(request);
  request.seed = 6;
  request.out = dir + "/c.txt";
  Response third = server.Submit(request);
  server.Stop();

  ASSERT_EQ(first.status, ResponseStatus::kOk) << first.detail;
  ASSERT_EQ(second.status, ResponseStatus::kOk) << second.detail;
  ASSERT_EQ(third.status, ResponseStatus::kOk) << third.detail;
  EXPECT_EQ(first.nodes, ServeTestGraph().num_nodes());
  std::string a = SlurpFile(dir + "/a.txt");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, SlurpFile(dir + "/b.txt"));       // same seed -> same graph
  EXPECT_NE(a, SlurpFile(dir + "/c.txt"));       // different seed differs
}

TEST_F(ServerTest, HierarchicalRequestIsDeterministicAndSized) {
  Server server(&SharedServeRegistry(), QuickOptions());
  server.Start();
  std::string dir = ServeTempDir("server_hier");
  Request request;
  request.hierarchical = true;
  request.seed = 12;
  request.out = dir + "/a.txt";
  Response first = server.Submit(request);
  request.out = dir + "/b.txt";
  Response second = server.Submit(request);

  // Hierarchical decodes scale past the observed size (the skeleton keeps
  // the observed community profile at any node count).
  Request big;
  big.hierarchical = true;
  big.nodes = ServeTestGraph().num_nodes() * 2;
  big.seed = 12;
  Response big_response = server.Submit(big);
  server.Stop();

  ASSERT_EQ(first.status, ResponseStatus::kOk) << first.detail;
  ASSERT_EQ(second.status, ResponseStatus::kOk) << second.detail;
  EXPECT_EQ(first.nodes, ServeTestGraph().num_nodes());
  EXPECT_GT(first.edges, 0);
  std::string a = SlurpFile(dir + "/a.txt");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, SlurpFile(dir + "/b.txt"));  // same seed -> same graph

  ASSERT_EQ(big_response.status, ResponseStatus::kOk) << big_response.detail;
  EXPECT_EQ(big_response.nodes, ServeTestGraph().num_nodes() * 2);
  EXPECT_GT(big_response.edges, 0);
}

TEST_F(ServerTest, ConcurrentDecodesMatchSerialGenerate) {
  // Four clients keep four workers decoding at once, mixing flat, hier=1
  // and sized hier=1 requests, at kernel pool sizes 1 and 4. Every output
  // file must equal the serial decode of its seed, edge for edge.
  constexpr int kClients = 4;
  constexpr int kPerClient = 3;
  const int observed = ServeTestGraph().num_nodes();
  std::shared_ptr<const ServableModel> model =
      SharedServeRegistry().Find("default");
  const int threads_before = util::ThreadPool::Global().num_threads();
  for (int threads : {1, 4}) {
    util::ThreadPool::SetGlobalThreads(threads);
    std::string dir = ServeTempDir("server_concurrent");
    std::vector<Request> requests(kClients * kPerClient);
    for (size_t r = 0; r < requests.size(); ++r) {
      requests[r].seed = 500 + r;
      requests[r].hierarchical = r % 3 != 0;
      if (r % 3 == 2) requests[r].nodes = 2 * observed;
      requests[r].out = dir + "/" + std::to_string(r) + ".txt";
    }
    ServerOptions options = QuickOptions();
    options.num_workers = kClients;
    Server server(&SharedServeRegistry(), options);
    server.Start();
    std::vector<Response> responses(requests.size());
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < kPerClient; ++i) {
          const int r = c * kPerClient + i;
          responses[r] = server.Submit(requests[r]);
        }
      });
    }
    for (std::thread& client : clients) client.join();
    server.Stop();

    for (size_t r = 0; r < requests.size(); ++r) {
      ASSERT_EQ(responses[r].status, ResponseStatus::kOk)
          << "threads=" << threads << " request " << r << ": "
          << responses[r].detail;
      core::GenerateControls controls;
      controls.num_nodes = requests[r].nodes;
      controls.hierarchical = requests[r].hierarchical;
      util::Rng rng(requests[r].seed);
      std::string expected;
      for (const auto& [u, v] : model->Generate(controls, rng).Edges()) {
        expected += std::to_string(u) + " " + std::to_string(v) + "\n";
      }
      ASSERT_FALSE(expected.empty());
      EXPECT_EQ(SlurpFile(requests[r].out), expected)
          << "threads=" << threads << " request " << r;
    }
  }
  util::ThreadPool::SetGlobalThreads(threads_before);
}

TEST_F(ServerTest, ArbitrarySizeRequestUsesPriorPath) {
  Server server(&SharedServeRegistry(), QuickOptions());
  server.Start();
  Request request;
  request.nodes = 60;
  request.edges = 150;
  request.seed = 9;
  Response response = server.Submit(request);
  ASSERT_EQ(response.status, ResponseStatus::kOk) << response.detail;
  EXPECT_EQ(response.nodes, 60);
  EXPECT_GT(response.edges, 0);

  // Omitting edges= on a sized request scales the edge budget to preserve
  // the observed density, not the observed edge total.
  Request scaled;
  scaled.nodes = 50;
  scaled.seed = 9;
  Response scaled_response = server.Submit(scaled);
  server.Stop();
  ASSERT_EQ(scaled_response.status, ResponseStatus::kOk)
      << scaled_response.detail;
  EXPECT_EQ(scaled_response.nodes, 50);
  EXPECT_GT(scaled_response.edges, 0);
  EXPECT_LT(scaled_response.edges, ServeTestGraph().num_edges());
}

TEST_F(ServerTest, TinyDeadlineIsFlaggedNotServed) {
  Server server(&SharedServeRegistry(), QuickOptions());
  server.Start();
  Request request;
  request.deadline_ms = 0.001;
  Response response = server.Submit(request);
  server.Stop();
  EXPECT_EQ(response.status, ResponseStatus::kDeadlineExceeded);
  EXPECT_FALSE(response.detail.empty());
}

TEST_F(ServerTest, SubmitWithoutStartIsShed) {
  Server server(&SharedServeRegistry(), QuickOptions());
  Response response = server.Submit(Request{});
  EXPECT_EQ(response.status, ResponseStatus::kShed);
  EXPECT_EQ(response.detail, "server_stopped");
  EXPECT_EQ(server.Stats().shed, 1u);
}

TEST_F(ServerTest, UnknownModelIsAnExplicitError) {
  Server server(&SharedServeRegistry(), QuickOptions());
  server.Start();
  Request request;
  request.model = "nope";
  Response response = server.Submit(request);
  server.Stop();
  EXPECT_EQ(response.status, ResponseStatus::kError);
  EXPECT_NE(response.detail.find("unknown_model"), std::string::npos);
}

TEST_F(ServerTest, HandleLineDispatchesAndCountsParseErrors) {
  Server server(&SharedServeRegistry(), QuickOptions());
  server.Start();
  bool quit = false;
  EXPECT_EQ(server.HandleLine("# comment", &quit), "");
  EXPECT_EQ(server.HandleLine("", &quit), "");

  std::string line = server.HandleLine("GENERATE seed=2", &quit);
  Response response;
  ASSERT_TRUE(ParseResponse(line, &response)) << line;
  EXPECT_EQ(response.status, ResponseStatus::kOk);

  line = server.HandleLine("GENERATE nodes=zero", &quit);
  ASSERT_TRUE(ParseResponse(line, &response)) << line;
  EXPECT_EQ(response.status, ResponseStatus::kError);
  EXPECT_NE(response.detail.find("parse"), std::string::npos);

  line = server.HandleLine("STATS", &quit);
  EXPECT_NE(line.find("stats={"), std::string::npos);
  EXPECT_NE(line.find("\"received\":"), std::string::npos);
  EXPECT_FALSE(quit);

  line = server.HandleLine("QUIT", &quit);
  EXPECT_TRUE(quit);
  ASSERT_TRUE(ParseResponse(line, &response)) << line;
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  server.Stop();
}

TEST_F(ServerTest, ReloadSwapsModelAndBumpsVersion) {
  // Private registry: reloads mutate versions, so keep the shared one clean.
  ModelRegistry registry;
  std::string error;
  ASSERT_TRUE(registry.AddModel(ServeTestSpec(), &error)) << error;
  uint64_t before = registry.Find("default")->version();

  Server server(&registry, QuickOptions());
  server.Start();
  bool quit = false;
  std::string line = server.HandleLine(
      "RELOAD model=default checkpoint=" + ServeTestCheckpoint(), &quit);
  Response response;
  ASSERT_TRUE(ParseResponse(line, &response)) << line;
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(registry.Find("default")->version(), before + 1);
  EXPECT_EQ(registry.Find("default")->checkpoint(), ServeTestCheckpoint());

  // Reload from a missing file fails; the old model keeps serving.
  line = server.HandleLine("RELOAD model=default checkpoint=/nope.cpck",
                           &quit);
  ASSERT_TRUE(ParseResponse(line, &response)) << line;
  EXPECT_EQ(response.status, ResponseStatus::kError);
  EXPECT_EQ(registry.Find("default")->version(), before + 1);
  Response generate = server.Submit(Request{});
  EXPECT_EQ(generate.status, ResponseStatus::kOk);
  server.Stop();
}

TEST_F(ServerTest, WarmLoadedModelMatchesInProcessTraining) {
  // The checkpoint was written by a Fit of the identical config/seed, so a
  // warm-loaded registry must generate bitwise-identical graphs.
  ModelRegistry warm;
  std::string error;
  ASSERT_TRUE(warm.AddModel(ServeTestSpec(/*warm_load=*/true), &error))
      << error;
  std::string dir = ServeTempDir("server_warm_equiv");

  ServerOptions options = QuickOptions();
  Request request;
  request.seed = 21;
  {
    Server server(&SharedServeRegistry(), options);
    server.Start();
    request.out = dir + "/trained.txt";
    ASSERT_EQ(server.Submit(request).status, ResponseStatus::kOk);
    server.Stop();
  }
  {
    Server server(&warm, options);
    server.Start();
    request.out = dir + "/warm.txt";
    ASSERT_EQ(server.Submit(request).status, ResponseStatus::kOk);
    server.Stop();
  }
  std::string trained = SlurpFile(dir + "/trained.txt");
  ASSERT_FALSE(trained.empty());
  EXPECT_EQ(trained, SlurpFile(dir + "/warm.txt"));
}

TEST_F(ServerTest, RequestLogRecordsEveryResponse) {
  std::string dir = ServeTempDir("server_reqlog");
  ServerOptions options = QuickOptions();
  options.request_log = dir + "/requests.jsonl";
  Server server(&SharedServeRegistry(), options);
  server.Start();
  server.Submit(Request{});
  Request bad;
  bad.model = "nope";
  server.Submit(bad);
  server.Stop();

  std::string log = SlurpFile(options.request_log);
  ASSERT_FALSE(log.empty());
  int lines = 0;
  for (char c : log) lines += c == '\n';
  EXPECT_EQ(lines, 2);
  EXPECT_NE(log.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(log.find("\"status\":\"error\""), std::string::npos);
}

TEST_F(ServerTest, StatsCountersAddUp) {
  Server server(&SharedServeRegistry(), QuickOptions());
  server.Start();
  server.Submit(Request{});                       // ok
  Request expired;
  expired.deadline_ms = 0.001;
  server.Submit(expired);                         // deadline_exceeded
  server.Stop();
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.received, 2u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.errors, 0u);
}

}  // namespace
}  // namespace cpgan::serve
