// Concurrent model hot-reload: N client threads generate through the server
// while the registry repeatedly swaps the model underneath them. Asserts no
// torn reads (every response completes from a coherent model) and bitwise
// determinism per seed — every swap installs weights from the same
// checkpoint, so a fixed-seed request must produce the identical edge list
// no matter which model generation served it. This is the designated TSan
// target of the serve suite (docs/TESTING.md).

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/registry.h"
#include "serve/server.h"
#include "tests/serve/serve_test_util.h"

namespace cpgan::serve {
namespace {

TEST(RegistryReload, GenerateStaysCoherentAcrossHotSwaps) {
  ModelRegistry registry;
  std::string error;
  ASSERT_TRUE(registry.AddModel(ServeTestSpec(/*warm_load=*/true), &error))
      << error;
  uint64_t initial_version = registry.Find("default")->version();

  ServerOptions options;
  options.num_workers = 2;
  options.queue_capacity = 16;
  Server server(&registry, options);
  server.Start();

  std::string dir = ServeTempDir("registry_reload");
  constexpr int kClients = 3;
  constexpr int kPerClient = 4;
  constexpr int kReloads = 4;
  std::atomic<int> failures{0};

  std::thread reloader([&] {
    util::BackoffPolicy backoff;
    backoff.initial_delay_ms = 0.1;
    for (int i = 0; i < kReloads; ++i) {
      std::string reload_error;
      if (!registry.Reload("default", ServeTestCheckpoint(), backoff,
                           &reload_error)) {
        failures.fetch_add(1);
      }
    }
  });

  std::vector<std::vector<Response>> responses(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        Request request;
        request.seed = 33;  // fixed: outputs must be identical
        request.out = dir + "/c" + std::to_string(c) + "_" +
                      std::to_string(i) + ".txt";
        responses[c].push_back(server.Submit(request));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  reloader.join();
  server.Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(registry.Find("default")->version(),
            initial_version + kReloads);

  // Every request completed from a coherent model, and all outputs are
  // bitwise identical regardless of which model generation served them.
  std::string reference;
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(responses[c].size(), static_cast<size_t>(kPerClient));
    for (int i = 0; i < kPerClient; ++i) {
      const Response& response = responses[c][i];
      ASSERT_EQ(response.status, ResponseStatus::kOk) << response.detail;
      std::string contents = SlurpFile(dir + "/c" + std::to_string(c) + "_" +
                                       std::to_string(i) + ".txt");
      ASSERT_FALSE(contents.empty());
      if (reference.empty()) {
        reference = contents;
      } else {
        EXPECT_EQ(contents, reference)
            << "torn or non-deterministic output at client " << c
            << " request " << i;
      }
    }
  }
}

TEST(RegistryReload, SnapshotsOutliveTheSwap) {
  // A reader's shared_ptr snapshot must stay valid and immutable while a
  // reload replaces the registry entry under it.
  ModelRegistry registry;
  std::string error;
  ASSERT_TRUE(registry.AddModel(ServeTestSpec(/*warm_load=*/true), &error))
      << error;
  std::shared_ptr<const ServableModel> snapshot = registry.Find("default");
  ASSERT_NE(snapshot, nullptr);
  int observed_nodes = snapshot->observed_nodes();

  util::BackoffPolicy backoff;
  backoff.initial_delay_ms = 0.1;
  ASSERT_TRUE(
      registry.Reload("default", ServeTestCheckpoint(), backoff, &error))
      << error;
  std::shared_ptr<const ServableModel> fresh = registry.Find("default");
  EXPECT_NE(snapshot.get(), fresh.get());
  EXPECT_GT(fresh->version(), snapshot->version());

  // The old snapshot still decodes correctly after being replaced.
  core::GenerateControls controls;
  util::Rng rng(7);
  graph::Graph generated = snapshot->Generate(controls, rng);
  EXPECT_EQ(generated.num_nodes(), observed_nodes);
}

}  // namespace
}  // namespace cpgan::serve
