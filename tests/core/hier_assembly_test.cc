#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/cpgan.h"
#include "core/hier_assembly.h"
#include "data/synthetic.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "testing/diff_harness.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cpgan::core {
namespace {

namespace t = cpgan::tensor;

/// Planted three-block scorer: intra-community pairs score high, cross
/// pairs low, independent of which subset of ids is decoded.
SubgraphScorer PlantedScorer(const std::vector<int>& labels) {
  return [labels](const std::vector<int>& ids) {
    const int k = static_cast<int>(ids.size());
    t::Matrix probs(k, k);
    for (int a = 0; a < k; ++a) {
      for (int b = 0; b < k; ++b) {
        if (a == b) continue;
        probs.At(a, b) =
            labels[ids[a]] == labels[ids[b]] ? 0.7f : 0.02f;
      }
    }
    return probs;
  };
}

std::vector<int> NodeLabels(const CommunitySkeleton& skeleton) {
  std::vector<int> labels(skeleton.num_nodes, 0);
  for (int c = 0; c < skeleton.num_communities(); ++c) {
    for (int v : skeleton.members[c]) labels[v] = c;
  }
  return labels;
}

TEST(HierStreamSeedTest, AdjacentStreamsDecorrelated) {
  uint64_t a = HierStreamSeed(7, 0);
  uint64_t b = HierStreamSeed(7, 1);
  uint64_t c = HierStreamSeed(8, 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  // The derivation is a pure function (re-derivable on any thread).
  EXPECT_EQ(a, HierStreamSeed(7, 0));
}

TEST(BuildSkeletonTest, ScalesSizesAndSplitsBudgets) {
  // Observed profile 3:2:1 scaled to 24 nodes -> 12/8/4.
  std::vector<int> labels = {0, 0, 0, 1, 1, 2};
  std::vector<std::vector<double>> density = {
      {0.5, 0.05, 0.05}, {0.05, 0.5, 0.05}, {0.05, 0.05, 0.5}};
  CommunitySkeleton skeleton = BuildSkeleton(labels, 24, 60, density);
  ASSERT_EQ(skeleton.num_communities(), 3);
  EXPECT_EQ(skeleton.members[0].size(), 12u);
  EXPECT_EQ(skeleton.members[1].size(), 8u);
  EXPECT_EQ(skeleton.members[2].size(), 4u);
  // Members are contiguous ascending ranges covering [0, 24) exactly once.
  int next = 0;
  for (const auto& community : skeleton.members) {
    for (int v : community) EXPECT_EQ(v, next++);
  }
  EXPECT_EQ(next, 24);
  // Budget matrix is symmetric, capped by pair counts, and carries the
  // full target (capacities are nowhere near binding here).
  int64_t total = 0;
  for (int a = 0; a < 3; ++a) {
    for (int b = a; b < 3; ++b) {
      EXPECT_EQ(skeleton.budget[a][b], skeleton.budget[b][a]);
      const int64_t ka = static_cast<int64_t>(skeleton.members[a].size());
      const int64_t kb = static_cast<int64_t>(skeleton.members[b].size());
      const int64_t cap = a == b ? ka * (ka - 1) / 2 : ka * kb;
      EXPECT_LE(skeleton.budget[a][b], cap);
      total += skeleton.budget[a][b];
    }
  }
  EXPECT_EQ(total, 60);
  // Dense diagonal: most of the budget must land inside communities.
  int64_t intra = skeleton.budget[0][0] + skeleton.budget[1][1] +
                  skeleton.budget[2][2];
  EXPECT_GT(intra, 40);
}

TEST(BuildSkeletonTest, UnobservedCommunityStaysEmpty) {
  // Label 1 never occurs: its community must receive no output nodes (the
  // latent row borrowing in GenerateHierarchicalFromLatents needs every
  // populated community to have at least one observed member).
  std::vector<int> labels = {0, 0, 2, 2};
  std::vector<std::vector<double>> density(3, std::vector<double>(3, 0.3));
  CommunitySkeleton skeleton = BuildSkeleton(labels, 50, 80, density);
  ASSERT_EQ(skeleton.num_communities(), 3);
  EXPECT_TRUE(skeleton.members[1].empty());
  EXPECT_EQ(skeleton.members[0].size() + skeleton.members[2].size(), 50u);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(skeleton.budget[1][c], 0);
    EXPECT_EQ(skeleton.budget[c][1], 0);
  }
}

TEST(BuildSkeletonTest, AllZeroDensityFallsBackToPairCounts) {
  std::vector<int> labels = {0, 0, 0, 1, 1, 1};
  std::vector<std::vector<double>> density(2, std::vector<double>(2, 0.0));
  CommunitySkeleton skeleton = BuildSkeleton(labels, 12, 30, density);
  int64_t total = 0;
  for (int a = 0; a < 2; ++a) {
    for (int b = a; b < 2; ++b) total += skeleton.budget[a][b];
  }
  EXPECT_EQ(total, 30);
}

TEST(HierAssemblyTest, BitwiseIdenticalAcrossThreadCounts) {
  std::vector<int> observed_labels;
  for (int i = 0; i < 90; ++i) observed_labels.push_back(i / 30);
  std::vector<std::vector<double>> density = {
      {0.6, 0.03, 0.03}, {0.03, 0.6, 0.03}, {0.03, 0.03, 0.6}};
  CommunitySkeleton skeleton =
      BuildSkeleton(observed_labels, 90, 260, density);
  std::vector<int> labels = NodeLabels(skeleton);

  HierAssemblyOptions options;
  options.assembly.subgraph_size = 24;
  options.seed = 99;
  std::vector<std::vector<graph::Edge>> runs;
  for (int threads : {1, 2, 8}) {
    util::ThreadPool::SetGlobalThreads(threads);
    graph::Graph out =
        HierAssembleGraph(skeleton, PlantedScorer(labels), options);
    EXPECT_EQ(out.num_nodes(), 90);
    EXPECT_GT(out.num_edges(), 0);
    runs.push_back(out.Edges());
  }
  util::ThreadPool::SetGlobalThreads(1);
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(HierAssemblyTest, MostEdgesRespectTheSkeleton) {
  std::vector<int> observed_labels;
  for (int i = 0; i < 80; ++i) observed_labels.push_back(i / 20);
  std::vector<std::vector<double>> density(4,
                                           std::vector<double>(4, 0.02));
  for (int c = 0; c < 4; ++c) density[c][c] = 0.7;
  CommunitySkeleton skeleton =
      BuildSkeleton(observed_labels, 80, 240, density);
  std::vector<int> labels = NodeLabels(skeleton);
  HierAssemblyOptions options;
  options.seed = 5;
  graph::Graph out =
      HierAssembleGraph(skeleton, PlantedScorer(labels), options);
  int64_t intra = 0;
  for (const auto& [u, v] : out.Edges()) {
    if (labels[u] == labels[v]) ++intra;
  }
  EXPECT_GT(static_cast<double>(intra) / out.num_edges(), 0.75);
}

TEST(HierAssemblyTest, AbortMidDecodeReturnsValidPartialGraph) {
  std::vector<int> observed_labels;
  for (int i = 0; i < 120; ++i) observed_labels.push_back(i / 20);
  std::vector<std::vector<double>> density(6,
                                           std::vector<double>(6, 0.05));
  for (int c = 0; c < 6; ++c) density[c][c] = 0.6;
  CommunitySkeleton skeleton =
      BuildSkeleton(observed_labels, 120, 400, density);
  std::vector<int> labels = NodeLabels(skeleton);

  // Reference: the uninterrupted decode, in waves of two communities.
  HierAssemblyOptions options;
  options.seed = 17;
  testing::ScopedThreads two_threads(2);
  graph::Graph full =
      HierAssembleGraph(skeleton, PlantedScorer(labels), options);

  // Abort after a few polls: the result must be a valid graph over all
  // nodes with a strict subset of the work done, and the flag must be set.
  std::atomic<int> polls{0};
  bool aborted = false;
  options.assembly.aborted = &aborted;
  options.assembly.should_abort = [&polls] { return ++polls > 4; };
  graph::Graph partial =
      HierAssembleGraph(skeleton, PlantedScorer(labels), options);
  EXPECT_TRUE(aborted);
  EXPECT_EQ(partial.num_nodes(), 120);
  EXPECT_LT(partial.num_edges(), full.num_edges());
  for (const auto& [u, v] : partial.Edges()) {
    EXPECT_GE(u, 0);
    EXPECT_LT(v, 120);
    EXPECT_NE(u, v);
  }

  // Six pool threads: one wave holds every community, poll 1 is the check
  // before it, and only poll 3 fires: inside one community's AssembleGraph,
  // where no between-wave check sees it. The run still reports one abort.
  obs::Counter* aborts =
      obs::MetricsRegistry::Global().FindCounter("hier.aborts");
  const uint64_t before = aborts->Value();
  testing::ScopedThreads six_threads(6);
  polls = 0;
  options.assembly.should_abort = [&polls] { return ++polls == 3; };
  HierAssembleGraph(skeleton, PlantedScorer(labels), options);
  EXPECT_TRUE(aborted);
  EXPECT_EQ(aborts->Value(), before + 1);
}

TEST(HierAssemblyTest, AbortedFlagResetsOnReuse) {
  std::vector<int> observed_labels = {0, 0, 0, 0, 1, 1, 1, 1};
  std::vector<std::vector<double>> density(2, std::vector<double>(2, 0.4));
  CommunitySkeleton skeleton =
      BuildSkeleton(observed_labels, 40, 120, density);
  std::vector<int> labels = NodeLabels(skeleton);
  HierAssemblyOptions options;
  options.seed = 3;
  bool aborted = false;
  options.assembly.aborted = &aborted;
  options.assembly.should_abort = [] { return true; };
  HierAssembleGraph(skeleton, PlantedScorer(labels), options);
  EXPECT_TRUE(aborted);
  // Same options struct, no abort this time: the stale flag must clear.
  options.assembly.should_abort = [] { return false; };
  graph::Graph out =
      HierAssembleGraph(skeleton, PlantedScorer(labels), options);
  EXPECT_FALSE(aborted);
  EXPECT_GT(out.num_edges(), 0);
}

TEST(HierAssemblyTest, EmptyAndSingletonCommunities) {
  // Hand-built skeleton: an empty community, two singletons, one real one.
  CommunitySkeleton skeleton;
  skeleton.num_nodes = 6;
  skeleton.members = {{}, {0}, {1}, {2, 3, 4, 5}};
  skeleton.budget.assign(4, std::vector<int64_t>(4, 0));
  skeleton.budget[3][3] = 4;
  skeleton.budget[1][2] = skeleton.budget[2][1] = 1;  // singleton-singleton
  skeleton.budget[1][3] = skeleton.budget[3][1] = 2;
  HierAssemblyOptions options;
  options.seed = 23;
  graph::Graph out = HierAssembleGraph(
      skeleton,
      [](const std::vector<int>& ids) {
        const int k = static_cast<int>(ids.size());
        return t::Matrix(k, k, 0.5f);
      },
      options);
  EXPECT_EQ(out.num_nodes(), 6);
  // The singleton-singleton block can stitch its one cross pair; the
  // singleton never gains an intra edge.
  EXPECT_TRUE(out.HasEdge(0, 1));
  EXPECT_GT(out.num_edges(), 1);
  EXPECT_LE(out.num_edges(), 7);

  // Degenerate skeletons return edgeless graphs instead of crashing.
  CommunitySkeleton tiny;
  tiny.num_nodes = 1;
  tiny.members = {{0}};
  tiny.budget = {{3}};
  EXPECT_EQ(HierAssembleGraph(
                tiny,
                [](const std::vector<int>& ids) {
                  const int k = static_cast<int>(ids.size());
                  return t::Matrix(k, k, 0.5f);
                },
                options)
                .num_edges(),
            0);
}

// ----- End-to-end: the trained model's hierarchical generation. -----

graph::Graph TrainFixture(Cpgan* model) {
  data::CommunityGraphParams params;
  params.num_nodes = 120;
  params.num_edges = 420;
  params.num_communities = 6;
  params.intra_fraction = 0.92;
  util::Rng rng(3);
  graph::Graph observed = data::MakeCommunityGraph(params, rng);
  model->Fit(observed);
  return observed;
}

CpganConfig HierFixtureConfig() {
  CpganConfig config;
  config.epochs = 20;
  config.subgraph_size = 80;
  config.hidden_dim = 16;
  config.latent_dim = 8;
  config.feature_dim = 6;
  config.seed = 11;
  return config;
}

TEST(CpganHierTest, GenerateDeterministicAcrossThreadCounts) {
  Cpgan model(HierFixtureConfig());
  graph::Graph observed = TrainFixture(&model);
  GenerateControls controls;
  controls.hierarchical = true;
  std::vector<std::vector<graph::Edge>> runs;
  for (int threads : {1, 2, 8}) {
    util::ThreadPool::SetGlobalThreads(threads);
    util::Rng rng(77);
    graph::Graph out = model.GenerateWith(controls, rng);
    EXPECT_EQ(out.num_nodes(), observed.num_nodes());
    EXPECT_GT(out.num_edges(), 0);
    runs.push_back(out.Edges());
  }
  util::ThreadPool::SetGlobalThreads(1);
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(CpganHierTest, GeneratesLargerThanTrainingGraph) {
  Cpgan model(HierFixtureConfig());
  graph::Graph observed = TrainFixture(&model);
  GenerateControls controls;
  controls.hierarchical = true;
  controls.num_nodes = observed.num_nodes() * 3;
  controls.num_edges = observed.num_edges() * 3;
  util::Rng rng(5);
  graph::Graph out = model.GenerateWith(controls, rng);
  EXPECT_EQ(out.num_nodes(), observed.num_nodes() * 3);
  EXPECT_GT(out.num_edges(), observed.num_edges());
}

TEST(CpganHierTest, LearnedCommunityLabelsCoverObservedNodes) {
  Cpgan model(HierFixtureConfig());
  graph::Graph observed = TrainFixture(&model);
  std::vector<int> labels = model.LearnedCommunityLabels();
  ASSERT_EQ(static_cast<int>(labels.size()), observed.num_nodes());
  for (int label : labels) EXPECT_GE(label, 0);
}

}  // namespace
}  // namespace cpgan::core
