#include <gtest/gtest.h>

#include <cstdio>
#include "core/cpgan.h"
#include "data/synthetic.h"
#include "eval/community_eval.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace cpgan::core {
namespace {

graph::Graph SmallCommunityGraph(uint64_t seed = 3) {
  data::CommunityGraphParams params;
  params.num_nodes = 120;
  params.num_edges = 420;
  params.num_communities = 6;
  params.intra_fraction = 0.92;
  params.degree_exponent = 2.6;
  util::Rng rng(seed);
  return data::MakeCommunityGraph(params, rng);
}

CpganConfig FastConfig() {
  CpganConfig config;
  config.epochs = 25;
  config.subgraph_size = 80;
  config.hidden_dim = 16;
  config.latent_dim = 8;
  config.feature_dim = 6;
  config.seed = 11;
  return config;
}

TEST(CpganTest, TrainsAndGeneratesMatchingSize) {
  graph::Graph observed = SmallCommunityGraph();
  Cpgan model(FastConfig());
  TrainStats stats = model.Fit(observed);
  EXPECT_EQ(static_cast<int>(stats.g_loss.size()), 25);
  EXPECT_TRUE(model.trained());
  graph::Graph generated = model.Generate();
  EXPECT_EQ(generated.num_nodes(), observed.num_nodes());
  // Assembly targets the observed edge count (it may stop slightly short).
  EXPECT_GT(generated.num_edges(), observed.num_edges() / 2);
  EXPECT_LE(generated.num_edges(), observed.num_edges());
}

TEST(CpganTest, LossesAreFinite) {
  graph::Graph observed = SmallCommunityGraph();
  Cpgan model(FastConfig());
  TrainStats stats = model.Fit(observed);
  for (float loss : stats.d_loss) EXPECT_TRUE(std::isfinite(loss));
  for (float loss : stats.g_loss) EXPECT_TRUE(std::isfinite(loss));
  for (float loss : stats.clus_loss) EXPECT_TRUE(std::isfinite(loss));
}

TEST(CpganTest, ReconstructionLossDecreases) {
  graph::Graph observed = SmallCommunityGraph();
  CpganConfig config = FastConfig();
  config.epochs = 60;
  Cpgan model(config);
  TrainStats stats = model.Fit(observed);
  // Compare mean generator loss over the first vs last 10 epochs.
  double early = 0.0;
  double late = 0.0;
  for (int i = 0; i < 10; ++i) {
    early += stats.g_loss[i];
    late += stats.g_loss[stats.g_loss.size() - 1 - i];
  }
  EXPECT_LT(late, early);
}

TEST(CpganTest, GenerateWithSizeProducesRequestedShape) {
  graph::Graph observed = SmallCommunityGraph();
  Cpgan model(FastConfig());
  model.Fit(observed);
  graph::Graph generated = model.GenerateWithSize(60, 150);
  EXPECT_EQ(generated.num_nodes(), 60);
  EXPECT_LE(generated.num_edges(), 150);
}

TEST(CpganTest, EdgeProbabilitiesSeparatePositivesFromNegatives) {
  graph::Graph observed = SmallCommunityGraph();
  CpganConfig config = FastConfig();
  config.epochs = 80;
  Cpgan model(config);
  model.Fit(observed);
  std::vector<graph::Edge> positives = observed.Edges();
  positives.resize(std::min<size_t>(positives.size(), 100));
  std::vector<graph::Edge> negatives;
  util::Rng rng(5);
  while (negatives.size() < 100) {
    int u = static_cast<int>(rng.UniformInt(observed.num_nodes()));
    int v = static_cast<int>(rng.UniformInt(observed.num_nodes()));
    if (u == v || observed.HasEdge(u, v)) continue;
    negatives.emplace_back(u, v);
  }
  std::vector<double> p_pos = model.EdgeProbabilities(positives);
  std::vector<double> p_neg = model.EdgeProbabilities(negatives);
  double mean_pos = 0.0;
  double mean_neg = 0.0;
  for (double p : p_pos) mean_pos += p;
  for (double p : p_neg) mean_neg += p;
  mean_pos /= p_pos.size();
  mean_neg /= p_neg.size();
  EXPECT_GT(mean_pos, mean_neg);
}

TEST(CpganTest, AblationVariantsTrain) {
  graph::Graph observed = SmallCommunityGraph();
  for (int variant = 0; variant < 3; ++variant) {
    CpganConfig config = FastConfig();
    config.epochs = 10;
    if (variant == 0) config.concat_decoder = true;     // CPGAN-C
    if (variant == 1) config.use_variational = false;   // CPGAN-noV
    if (variant == 2) config.use_hierarchy = false;     // CPGAN-noH
    Cpgan model(config);
    TrainStats stats = model.Fit(observed);
    EXPECT_TRUE(std::isfinite(stats.g_loss.back()));
    graph::Graph generated = model.Generate();
    EXPECT_EQ(generated.num_nodes(), observed.num_nodes());
  }
}

TEST(CpganTest, PreservesCommunityStructureBetterThanNoise) {
  graph::Graph observed = SmallCommunityGraph();
  CpganConfig config = FastConfig();
  config.epochs = 120;
  Cpgan model(config);
  model.Fit(observed);
  graph::Graph generated = model.Generate();
  util::Rng rng(9);
  eval::CommunityMetrics metrics =
      eval::EvaluateCommunityPreservation(observed, generated, rng);
  // A random graph scores ~0 NMI; the trained model must beat that clearly.
  EXPECT_GT(metrics.nmi, 0.15);
}

}  // namespace
}  // namespace cpgan::core

namespace cpgan::core {
namespace {

TEST(CpganTest, SaveLoadWeightsRoundTrip) {
  graph::Graph observed = SmallCommunityGraph(4);
  CpganConfig config = FastConfig();
  config.epochs = 15;
  Cpgan model(config);
  model.Fit(observed);
  std::string path = ::testing::TempDir() + "/cpgan_weights.bin";
  ASSERT_TRUE(model.SaveWeights(path));

  // Second model with the same architecture; after loading, its edge
  // probabilities must match the original's exactly.
  Cpgan clone(config);
  clone.Fit(observed);  // builds the architecture (and trains briefly)
  ASSERT_TRUE(clone.LoadWeights(path));
  std::vector<graph::Edge> pairs = observed.Edges();
  pairs.resize(std::min<size_t>(pairs.size(), 30));
  std::vector<double> original = model.EdgeProbabilities(pairs);
  std::vector<double> restored = clone.EdgeProbabilities(pairs);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_NEAR(original[i], restored[i], 1e-5);
  }
  // Generation decodes the observed graph's encoding, which LoadWeights
  // must refresh: the clone generates the original's graphs edge for edge.
  for (bool hierarchical : {false, true}) {
    GenerateControls controls;
    controls.hierarchical = hierarchical;
    util::Rng original_rng(21);
    util::Rng restored_rng(21);
    EXPECT_EQ(model.GenerateWith(controls, original_rng).Edges(),
              clone.GenerateWith(controls, restored_rng).Edges())
        << (hierarchical ? "hierarchical" : "flat");
  }
  std::remove(path.c_str());
}

TEST(CpganTest, HierarchicalSizedGenerationKeepsObservedDensity) {
  // Without an explicit edge count, a hierarchical output at twice the
  // observed size targets twice the observed edges, like a flat one.
  graph::Graph observed = SmallCommunityGraph();
  Cpgan model(FastConfig());
  model.Fit(observed);
  GenerateControls controls;
  controls.hierarchical = true;
  controls.num_nodes = 2 * observed.num_nodes();
  util::Rng rng(5);
  graph::Graph out = model.GenerateWith(controls, rng);
  EXPECT_EQ(out.num_nodes(), 2 * observed.num_nodes());
  EXPECT_GT(out.num_edges(), observed.num_edges());
}

TEST(CpganTest, LoadRejectsMismatchedArchitecture) {
  graph::Graph observed = SmallCommunityGraph(5);
  CpganConfig config = FastConfig();
  config.epochs = 5;
  Cpgan model(config);
  model.Fit(observed);
  std::string path = ::testing::TempDir() + "/cpgan_weights2.bin";
  ASSERT_TRUE(model.SaveWeights(path));

  CpganConfig other = FastConfig();
  other.epochs = 5;
  other.hidden_dim = 24;  // different architecture
  Cpgan mismatched(other);
  mismatched.Fit(observed);
  EXPECT_FALSE(mismatched.LoadWeights(path));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cpgan::core

namespace cpgan::core {
namespace {

TEST(CpganTest, FitManyTrainsOnGraphSet) {
  // Two graphs from the same family; the model trains on both and
  // generates for the first.
  graph::Graph a = SmallCommunityGraph(6);
  graph::Graph b = SmallCommunityGraph(7);
  CpganConfig config = FastConfig();
  config.epochs = 30;
  Cpgan model(config);
  TrainStats stats = model.FitMany({a, b});
  EXPECT_EQ(static_cast<int>(stats.g_loss.size()), 30);
  for (float loss : stats.g_loss) EXPECT_TRUE(std::isfinite(loss));
  graph::Graph generated = model.Generate();
  EXPECT_EQ(generated.num_nodes(), a.num_nodes());
}

TEST(CpganTest, FitManyHandlesDifferentSizes) {
  graph::Graph big = SmallCommunityGraph(8);
  data::CommunityGraphParams params;
  params.num_nodes = 60;
  params.num_edges = 200;
  params.num_communities = 4;
  util::Rng rng(9);
  graph::Graph small = data::MakeCommunityGraph(params, rng);
  CpganConfig config = FastConfig();
  config.epochs = 20;
  Cpgan model(config);
  TrainStats stats = model.FitMany({big, small});
  EXPECT_TRUE(std::isfinite(stats.g_loss.back()));
}

}  // namespace
}  // namespace cpgan::core
