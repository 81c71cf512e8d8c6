#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/cpgan.h"
#include "data/synthetic.h"
#include "eval/community_eval.h"
#include "graph/graph.h"
#include "obs/trace.h"
#include "tensor/kernels.h"
#include "train/checkpoint.h"
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

TEST(CpganTest, VerboseLogWithoutDiscriminatorStep) {
  // The verbose epoch log must not read a discriminator loss on an epoch
  // that ran no discriminator step.
  CpganConfig config = FastConfig();
  config.epochs = 3;
  config.disc_every = 0;
  config.verbose = true;
  Cpgan model(config);
  TrainStats stats = model.Fit(SmallCommunityGraph());
  EXPECT_TRUE(stats.d_loss.empty());
  EXPECT_TRUE(stats.clus_loss.empty());
  EXPECT_EQ(static_cast<int>(stats.g_loss.size()), config.epochs);
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

/// Forces the scalar kernel backend for one test body and restores the
/// previous backend afterwards (tests share one process).
class ScalarBackend {
 public:
  ScalarBackend() : previous_(tensor::kernels::Active().name) {
    EXPECT_TRUE(tensor::kernels::SetBackend("scalar"));
  }
  ~ScalarBackend() { EXPECT_TRUE(tensor::kernels::SetBackend(previous_)); }

 private:
  std::string previous_;
};

/// FNV-1a over the node count and the sorted edge list.
uint64_t EdgeListHash(const graph::Graph& g) {
  uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](int64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= static_cast<uint64_t>(value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  };
  mix(g.num_nodes());
  for (const auto& [u, v] : g.Edges()) {
    mix(u);
    mix(v);
  }
  return hash;
}

TEST(CpganTest, GenerateWithMatchesPinnedHashes) {
  // Pins training and every GenerateWith mode bit for bit. The scalar
  // backend rounds a product the same way at every call size, so these
  // hashes hold however generation splits its scoring into blocks.
  ScalarBackend scalar;
  graph::Graph observed = SmallCommunityGraph();
  Cpgan model(FastConfig());
  model.Fit(observed);
  const int n = observed.num_nodes();
  struct Case {
    const char* name;
    bool hierarchical;
    bool from_prior;
    int num_nodes;
    int subgraph_size;
    uint64_t hash;
  };
  const Case cases[] = {
      {"flat posterior", false, false, 0, 0, 0xe87cbed12cb85215ULL},
      {"flat posterior, 25-node chunks", false, false, 0, 25,
       0x2823183696fe837aULL},
      {"flat prior", false, true, 0, 0, 0x6e51ef58947a984eULL},
      {"hierarchical", true, false, 0, 0, 0x02f6477ee02416afULL},
      {"hierarchical at 2n", true, false, 2 * n, 0, 0x41d0cacfae1477e4ULL},
      {"prior at n/3+5", false, true, n / 3 + 5, 0, 0x77f1618cd3c6289bULL},
  };
  for (const Case& c : cases) {
    GenerateControls controls;
    controls.hierarchical = c.hierarchical;
    controls.from_prior = c.from_prior;
    controls.num_nodes = c.num_nodes;
    controls.subgraph_size = c.subgraph_size;
    util::Rng rng(31);
    const uint64_t hash = EdgeListHash(model.GenerateWith(controls, rng));
    EXPECT_EQ(hash, c.hash) << c.name << ": got 0x" << std::hex << hash;
  }
}

/// FNV-1a over the bit patterns of the generator, then the discriminator,
/// losses.
uint64_t LossHash(const TrainStats& stats) {
  uint64_t hash = 1469598103934665603ULL;
  for (const std::vector<float>* losses : {&stats.g_loss, &stats.d_loss}) {
    for (float loss : *losses) {
      uint32_t bits = 0;
      std::memcpy(&bits, &loss, sizeof(bits));
      for (int byte = 0; byte < 4; ++byte) {
        hash ^= (bits >> (8 * byte)) & 0xffu;
        hash *= 1099511628211ULL;
      }
    }
  }
  return hash;
}

TEST(CpganTest, FitManyAndCoresetTrainingMatchPinnedHashes) {
  // Pins multi-graph and coreset training bit for bit: every loss, and the
  // graph Generate() draws afterwards.
  ScalarBackend scalar;
  {
    Cpgan model(FastConfig());
    TrainStats stats =
        model.FitMany({SmallCommunityGraph(6), SmallCommunityGraph(7)});
    EXPECT_EQ(LossHash(stats), 0x8a2d77d987fe9c4bULL)
        << "FitMany losses: got 0x" << std::hex << LossHash(stats);
    const uint64_t edges = EdgeListHash(model.Generate());
    EXPECT_EQ(edges, 0xaa4e3230288103c9ULL)
        << "FitMany graph: got 0x" << std::hex << edges;
  }
  {
    CpganConfig config = FastConfig();
    config.coreset_size = 60;
    Cpgan model(config);
    TrainStats stats = model.Fit(SmallCommunityGraph());
    EXPECT_EQ(stats.coreset_nodes, 50);  // distinct nodes of 60 draws
    EXPECT_EQ(LossHash(stats), 0x77e93236ccc17824ULL)
        << "coreset losses: got 0x" << std::hex << LossHash(stats);
    const uint64_t edges = EdgeListHash(model.Generate());
    EXPECT_EQ(edges, 0x97208e0c210b8194ULL)
        << "coreset graph: got 0x" << std::hex << edges;
  }
}

TEST(CpganTest, AblationTrainingMatchesPinnedHashes) {
  // Pins the Table VI ablations and the two-hop adjacency bit for bit:
  // every loss, and the graph Generate() draws afterwards. CPGAN-noH
  // generates hierarchically, so its hash also covers the community labels
  // it takes from the Louvain partition.
  ScalarBackend scalar;
  struct Case {
    const char* name;
    void (*configure)(CpganConfig&);
    uint64_t losses;
    uint64_t edges;
  };
  const Case cases[] = {
      {"CPGAN-C", [](CpganConfig& c) { c.concat_decoder = true; },
       0xaa3feccb655bcf96ULL, 0x47e5c27c56f6d22dULL},
      {"CPGAN-noV", [](CpganConfig& c) { c.use_variational = false; },
       0xe6bb8d0f39a9f024ULL, 0x5ea460aba1a96ff4ULL},
      {"two-hop adjacency",
       [](CpganConfig& c) { c.use_two_hop_adjacency = true; },
       0x8b479a2d0e349cd2ULL, 0x742702a0b727bc88ULL},
      {"CPGAN-noH",
       [](CpganConfig& c) {
         c.use_hierarchy = false;
         c.hierarchical_generation = true;
       },
       0x1e73ade9b9960f50ULL, 0xfc9b6567b9e79b47ULL},
  };
  for (const Case& c : cases) {
    CpganConfig config = FastConfig();
    c.configure(config);
    Cpgan model(config);
    TrainStats stats = model.Fit(SmallCommunityGraph());
    EXPECT_EQ(LossHash(stats), c.losses)
        << c.name << " losses: got 0x" << std::hex << LossHash(stats);
    const uint64_t edges = EdgeListHash(model.Generate());
    EXPECT_EQ(edges, c.edges) << c.name << " graph: got 0x" << std::hex
                              << edges;
  }
}

TEST(CpganTest, GuardRecoveryMatchesPinnedHashes) {
  // A NaN gradient at epoch 7 is rejected: the guard rolls the parameters
  // back and every learning rate decays. Pins that run bit for bit.
  ScalarBackend scalar;
  Cpgan model(FastConfig());
  train::FaultPlan plan;
  plan.nan_grad_epoch = 7;
  plan.nan_grad_param = 2;
  model.SetFaultPlan(plan);
  TrainStats stats = model.Fit(SmallCommunityGraph());
  EXPECT_EQ(stats.recoveries, 1);
  EXPECT_EQ(LossHash(stats), 0xf8f5f00645b48552ULL)
      << "recovered losses: got 0x" << std::hex << LossHash(stats);
  const uint64_t edges = EdgeListHash(model.Generate());
  EXPECT_EQ(edges, 0x61ba8eb6e52a8fefULL)
      << "recovered graph: got 0x" << std::hex << edges;
}

TEST(CpganTest, ResumedTrainingMatchesPinnedHashes) {
  // Resumes from the epoch-8 checkpoint of a run whose learning rates decay
  // every 3 epochs, so the catch-up applies two decays. Pins the resumed
  // run bit for bit.
  ScalarBackend scalar;
  CpganConfig config = FastConfig();
  config.lr_decay_every = 3;
  config.checkpoint_dir = ::testing::TempDir() + "/cpgan_resume_pin";
  config.checkpoint_every = 8;
  const std::string checkpoint =
      train::CheckpointPath(config.checkpoint_dir, 8);
  std::remove(checkpoint.c_str());
  {
    Cpgan killed(config);
    train::FaultPlan plan;
    plan.stop_after_epoch = 7;
    killed.SetFaultPlan(plan);
    killed.Fit(SmallCommunityGraph());
  }
  config.checkpoint_dir.clear();
  Cpgan model(config);
  ASSERT_TRUE(model.ResumeFrom(checkpoint));
  TrainStats stats = model.Fit(SmallCommunityGraph());
  std::remove(checkpoint.c_str());
  EXPECT_EQ(stats.start_epoch, 8);
  EXPECT_EQ(LossHash(stats), 0x040cd255a0da6256ULL)
      << "resumed losses: got 0x" << std::hex << LossHash(stats);
  const uint64_t edges = EdgeListHash(model.Generate());
  EXPECT_EQ(edges, 0x32b95088b63fe791ULL)
      << "resumed graph: got 0x" << std::hex << edges;
}

/// Calls of the span `name` recorded since the last ResetTraces.
uint64_t SpanCalls(const std::string& name) {
  uint64_t calls = 0;
  for (const obs::SpanStats& span : obs::CollectSpanStats()) {
    if (span.name == name) calls += span.calls;
  }
  return calls;
}

TEST(CpganTest, PosteriorGenerationRunsNoDecoderPass) {
  // Observed-size flat and hierarchical outputs score from the table the
  // model stored with its posterior latents; only prior latents need a
  // decoder pass, one per request.
  graph::Graph observed = SmallCommunityGraph();
  Cpgan model(FastConfig());
  model.Fit(observed);
  const bool was_tracing = obs::TracingEnabled();
  obs::SetTracingEnabled(true);
  obs::ResetTraces();
  for (bool hierarchical : {false, true}) {
    GenerateControls controls;
    controls.hierarchical = hierarchical;
    util::Rng rng(12);
    model.GenerateWith(controls, rng);
  }
  EXPECT_EQ(SpanCalls("decoder/decode"), 0u);
  EXPECT_GT(SpanCalls("decoder/score"), 0u);
  GenerateControls prior;
  prior.from_prior = true;
  util::Rng rng(13);
  model.GenerateWith(prior, rng);
  EXPECT_EQ(SpanCalls("decoder/decode"), 1u);
  obs::SetTracingEnabled(was_tracing);
  obs::ResetTraces();
}

TEST(CpganTest, ProfiledCoresetFitKeepsTheCoresetSpan) {
  // A Fit that asks for its own profile resets the collected spans first;
  // the coreset swap must run inside that window, or the profile and trace
  // never show it.
  CpganConfig config = FastConfig();
  config.epochs = 2;
  config.coreset_size = 60;
  config.profile = true;
  Cpgan model(config);
  TrainStats stats = model.Fit(SmallCommunityGraph());
  EXPECT_EQ(stats.coreset_nodes, 50);
  EXPECT_EQ(SpanCalls("train/coreset_sample"), 1u);
  obs::ResetTraces();
}

TEST(CpganDeathTest, EdgeProbabilitiesRejectsOutOfRangeIds) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  graph::Graph observed = SmallCommunityGraph();
  CpganConfig config = FastConfig();
  config.epochs = 2;
  Cpgan model(config);
  model.Fit(observed);
  const int n = observed.num_nodes();
  EXPECT_DEATH(model.EdgeProbabilities({{0, n}}), "CHECK");
  EXPECT_DEATH(model.EdgeProbabilities({{-1, 0}}), "CHECK");
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
