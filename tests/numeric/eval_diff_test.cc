// Differential tests for the eval/community hot-path rewrite: the cached
// Gram-matrix MMD, the flat-CSR Louvain, and the clustering, triangle and
// CPL graph metrics against the pre-rewrite implementations preserved
// verbatim in testing/eval_ref.*.
//
// MMD must agree *bitwise* with the reference at every thread count — the
// rewrite caches the per-sample common-support normalization and shares one
// symmetric Gram matrix, but every surviving floating-point operation is the
// same op in the same order (see the note in eval/mmd.cc on why the prefix
// CDFs are deliberately not cached).
//
// Louvain's gains are bitwise identical too (all weights are exact integers
// in double); the one legal divergence channel is the argmax scan order on
// exactly-tied gains, so tie-free fixtures are held to exact partition
// equality and tie-heavy ones to quality parity.
//
// The graph metrics are integer counts turned into doubles by one fixed
// formula, so they must agree bitwise at every thread count, and the CPL
// must leave the RNG stream exactly where the reference leaves it.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "community/louvain.h"
#include "community/metrics.h"
#include "data/synthetic.h"
#include "eval/mmd.h"
#include "generators/ba.h"
#include "graph/algorithms.h"
#include "graph/stats.h"
#include "testing/diff_harness.h"
#include "testing/eval_ref.h"
#include "util/rng.h"

namespace cpgan {
namespace {

using eval::Mmd;
using eval::MmdEstimator;
using eval::MmdKernel;

graph::Graph MakeSbm(int nodes, int edges, int comms, uint64_t seed) {
  data::CommunityGraphParams params;
  params.num_nodes = nodes;
  params.num_edges = edges;
  params.num_communities = comms;
  params.intra_fraction = 0.95;
  params.community_size_skew = 0.0;
  util::Rng rng(seed);
  return data::MakeCommunityGraph(params, rng);
}

// Degree-histogram sample sets with deliberately unequal supports (SBM
// histograms are ~30 bins, BA ones 40-65), so the common-support padding is
// exercised on every pair.
void MakeHistogramSets(std::vector<std::vector<double>>& a,
                       std::vector<std::vector<double>>& b) {
  for (uint64_t s = 0; s < 6; ++s) {
    graph::Graph g = MakeSbm(200, 900, 8, 20 + s);
    int maxd = 1;
    for (int v = 0; v < g.num_nodes(); ++v) maxd = std::max(maxd, g.degree(v));
    a.push_back(graph::DegreeHistogram(g, maxd));
    util::Rng rng(40 + s);
    graph::Graph h = generators::BaGenerator(200, 4).Generate(rng);
    int maxdh = 1;
    for (int v = 0; v < h.num_nodes(); ++v) {
      maxdh = std::max(maxdh, h.degree(v));
    }
    b.push_back(graph::DegreeHistogram(h, maxdh));
  }
}

TEST(MmdDiffTest, BitwiseMatchesReferenceAcrossThreads) {
  std::vector<std::vector<double>> a, b;
  MakeHistogramSets(a, b);
  const struct {
    MmdKernel kernel;
    MmdEstimator estimator;
    double sigma;
  } kCases[] = {
      {MmdKernel::kGaussianEmd, MmdEstimator::kBiased, 1.0},
      {MmdKernel::kGaussianEmd, MmdEstimator::kUnbiased, 1.0},
      {MmdKernel::kGaussianTv, MmdEstimator::kBiased, 1.0},
      {MmdKernel::kGaussianTv, MmdEstimator::kUnbiased, 1.0},
      {MmdKernel::kGaussianEmd, MmdEstimator::kBiased, 2.0},
      {MmdKernel::kGaussianEmd, MmdEstimator::kUnbiased, 0.5},
  };
  for (const auto& c : kCases) {
    const double want =
        testing::RefMmd(a, b, c.kernel, c.sigma, c.estimator);
    for (int threads : {1, 2, 8}) {
      testing::ScopedThreads scoped(threads);
      const double got = Mmd(a, b, c.kernel, c.sigma, c.estimator);
      EXPECT_EQ(got, want) << "threads=" << threads
                           << " sigma=" << c.sigma;
    }
  }
}

TEST(MmdDiffTest, BitwiseMatchesReferenceOnSmallSets) {
  // Singleton and two-element sets take the serial Gram fallback and the
  // singleton within-set estimator fallback; hold those to the reference
  // too.
  std::vector<std::vector<double>> a, b;
  MakeHistogramSets(a, b);
  const std::vector<std::vector<double>> a1 = {a[0]};
  const std::vector<std::vector<double>> b1 = {b[0]};
  const std::vector<std::vector<double>> a2 = {a[0], a[1]};
  for (MmdEstimator est : {MmdEstimator::kBiased, MmdEstimator::kUnbiased}) {
    EXPECT_EQ(Mmd(a1, b1, MmdKernel::kGaussianEmd, 1.0, est),
              testing::RefMmd(a1, b1, MmdKernel::kGaussianEmd, 1.0, est));
    EXPECT_EQ(Mmd(a2, b1, MmdKernel::kGaussianTv, 0.7, est),
              testing::RefMmd(a2, b1, MmdKernel::kGaussianTv, 0.7, est));
  }
}

TEST(MmdDiffTest, IdenticalSetsGiveExactZero) {
  std::vector<std::vector<double>> a, b;
  MakeHistogramSets(a, b);
  // k(p, p) multiplies exp(-0.0) = 1 exactly, and the unbiased estimator's
  // cross/within sums then cancel term-for-term in the same order, so the
  // self-comparison is an exact 0.0 — in both implementations.
  EXPECT_EQ(Mmd(a, a, MmdKernel::kGaussianEmd, 1.0, MmdEstimator::kUnbiased),
            0.0);
  EXPECT_EQ(testing::RefMmd(a, a, MmdKernel::kGaussianEmd, 1.0,
                            MmdEstimator::kUnbiased),
            0.0);
}

// ---------------------------------------------------------------------------
// Louvain
// ---------------------------------------------------------------------------

graph::Graph TwoCliquesWithBridge() {
  std::vector<graph::Edge> edges;
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) {
      edges.emplace_back(i, j);
      edges.emplace_back(6 + i, 6 + j);
    }
  }
  edges.emplace_back(0, 6);
  return graph::Graph(12, edges);
}

void ExpectSamePartitions(const community::LouvainResult& got,
                          const community::LouvainResult& want) {
  ASSERT_EQ(got.levels.size(), want.levels.size());
  for (size_t l = 0; l < got.levels.size(); ++l) {
    ASSERT_EQ(got.levels[l].num_nodes(), want.levels[l].num_nodes());
    for (int v = 0; v < got.levels[l].num_nodes(); ++v) {
      ASSERT_EQ(got.levels[l].label(v), want.levels[l].label(v))
          << "level " << l << " node " << v;
    }
  }
  EXPECT_EQ(got.modularity, want.modularity);
}

TEST(LouvainDiffTest, ExactMatchOnTieFreeFixtures) {
  // On these fixtures no two candidate moves ever have exactly equal gain,
  // so the rewrite must reproduce the reference level-by-level, including
  // the compacted community numbering (both compact in first-seen order).
  const graph::Graph cliques = TwoCliquesWithBridge();
  const graph::Graph sbm = MakeSbm(200, 900, 8, 11);
  const struct {
    const graph::Graph* g;
    uint64_t seed;
  } kCases[] = {{&cliques, 1}, {&sbm, 111}};
  for (const auto& c : kCases) {
    util::Rng ref_rng(c.seed);
    const community::LouvainResult want =
        testing::RefLouvain(*c.g, ref_rng);
    for (int threads : {1, 2, 8}) {
      testing::ScopedThreads scoped(threads);
      util::Rng rng(c.seed);
      const community::LouvainResult got = community::Louvain(*c.g, rng);
      ExpectSamePartitions(got, want);
    }
  }
}

TEST(LouvainDiffTest, QualityParityOnTieHeavyGraphs) {
  // Sparse SBM and BA graphs hit exactly-tied gains (gain gaps are integer
  // multiples of 1/2m), where the reference breaks ties in unordered_map
  // iteration order — a libstdc++ hashing artifact the flat-CSR rewrite
  // cannot (and should not) replicate. Partition quality must still agree:
  // near-identical modularity and high NMI against the reference labels.
  data::CommunityGraphParams params;  // 500 nodes, 1500 edges, 40 comms
  util::Rng gseed(7);
  const graph::Graph sbm = data::MakeCommunityGraph(params, gseed);
  util::Rng bseed(5);
  const graph::Graph ba = generators::BaGenerator(300, 3).Generate(bseed);
  const struct {
    const char* name;
    const graph::Graph* g;
    uint64_t seed;
    // BA graphs have no planted structure, so tie-breaking reshuffles the
    // (many, near-equivalent) partitions wholesale; the SBM's planted
    // blocks keep the two partitions strongly aligned.
    double min_nmi;
  } kCases[] = {{"sbm500", &sbm, 77, 0.8}, {"ba300", &ba, 55, 0.4}};
  for (const auto& c : kCases) {
    util::Rng ref_rng(c.seed);
    const community::LouvainResult want =
        testing::RefLouvain(*c.g, ref_rng);
    util::Rng rng(c.seed);
    const community::LouvainResult got = community::Louvain(*c.g, rng);
    EXPECT_NEAR(got.modularity, want.modularity, 0.02) << c.name;
    EXPECT_GE(community::NormalizedMutualInformation(
                  got.FinalPartition(), want.FinalPartition()),
              c.min_nmi)
        << c.name;
  }
}

// ---------------------------------------------------------------------------
// Graph metrics: local clustering, triangle count, characteristic path length
// ---------------------------------------------------------------------------

struct NamedGraph {
  std::string name;
  graph::Graph g;
};

graph::Graph MakeCommunity(int nodes, int64_t edges, int comms,
                           double triangle_fraction, uint64_t seed) {
  data::CommunityGraphParams params;
  params.num_nodes = nodes;
  params.num_edges = edges;
  params.num_communities = comms;
  params.triangle_fraction = triangle_fraction;
  util::Rng rng(seed);
  return data::MakeCommunityGraph(params, rng);
}

// Degenerate shapes, a large component that neither holds node 0 nor spans
// a contiguous id range (so sub-index i is not node i), a hub whose
// neighbour list every leaf with a chord scans, a clique, community graphs
// from triangle-free to triangle-rich, a BA graph, and one graph large
// enough that the clustering chunk grain exceeds 64 nodes.
std::vector<NamedGraph> MetricFixtures() {
  std::vector<NamedGraph> out;
  out.push_back({"n0", graph::Graph(0)});
  out.push_back({"n1", graph::Graph(1)});
  out.push_back({"n2", graph::Graph(2, {{0, 1}})});
  out.push_back({"isolated", graph::Graph(40)});
  {
    std::vector<graph::Edge> edges;
    for (int i = 0; i + 1 < 90; ++i) edges.emplace_back(i, i + 1);
    out.push_back({"path", graph::Graph(90, edges)});
  }
  {
    // {0, 5, 10} is a triangle; every other node is on a ring with chords.
    const int n = 120;
    std::vector<int> big;
    for (int v = 0; v < n; ++v) {
      if (v != 0 && v != 5 && v != 10) big.push_back(v);
    }
    std::vector<graph::Edge> edges = {{0, 5}, {5, 10}, {0, 10}};
    const int k = static_cast<int>(big.size());
    for (int i = 0; i < k; ++i) {
      edges.emplace_back(big[i], big[(i + 1) % k]);
      if (i % 4 == 0) edges.emplace_back(big[i], big[(i + 9) % k]);
      if (i % 10 == 0) edges.emplace_back(big[i], big[(i + 2) % k]);
    }
    out.push_back({"two_components", graph::Graph(n, edges)});
  }
  {
    const int n = 341;
    const int hub = 170;
    std::vector<graph::Edge> edges;
    for (int v = 0; v < n; ++v) {
      if (v != hub) edges.emplace_back(std::min(v, hub), std::max(v, hub));
    }
    for (graph::Edge chord : std::vector<graph::Edge>{
             {1, 2}, {2, 3}, {1, 3}, {10, 200}, {50, 300}, {299, 300},
             {169, 171}, {0, 340}}) {
      edges.push_back(chord);
    }
    out.push_back({"star", graph::Graph(n, edges)});
  }
  {
    std::vector<graph::Edge> edges;
    for (int i = 0; i < 40; ++i) {
      for (int j = i + 1; j < 40; ++j) edges.emplace_back(i, j);
    }
    out.push_back({"k40", graph::Graph(40, edges)});
  }
  out.push_back({"community_t0", MakeCommunity(600, 2400, 12, 0.0, 31)});
  out.push_back({"community_t0.2", MakeCommunity(600, 2400, 12, 0.2, 32)});
  out.push_back({"community_t0.4", MakeCommunity(600, 2400, 12, 0.4, 33)});
  {
    util::Rng rng(9);
    out.push_back({"ba", generators::BaGenerator(500, 3).Generate(rng)});
  }
  out.push_back({"community_20k", MakeCommunity(20000, 60000, 80, 0.2, 34)});
  return out;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

TEST(GraphMetricsDiffTest, ClusteringAndTrianglesBitwiseAcrossThreads) {
  for (const NamedGraph& f : MetricFixtures()) {
    const std::vector<double> want_coeffs =
        testing::RefLocalClusteringCoefficients(f.g);
    const int64_t want_triangles = testing::RefCountTriangles(f.g);
    for (int threads : {1, 2, 8}) {
      testing::ScopedThreads scoped(threads);
      const std::vector<double> coeffs =
          graph::LocalClusteringCoefficients(f.g);
      ASSERT_EQ(coeffs.size(), want_coeffs.size()) << f.name;
      for (size_t v = 0; v < coeffs.size(); ++v) {
        ASSERT_TRUE(SameBits(coeffs[v], want_coeffs[v]))
            << f.name << " threads=" << threads << " node " << v << ": "
            << coeffs[v] << " vs " << want_coeffs[v];
      }
      EXPECT_EQ(graph::CountTriangles(f.g), want_triangles)
          << f.name << " threads=" << threads;
    }
  }
}

TEST(GraphMetricsDiffTest, CplAndRngStreamBitwiseAcrossThreads) {
  for (const NamedGraph& f : MetricFixtures()) {
    std::vector<int> source_counts = {1, 63, 64, 65, 128, 129};
    // Every node a source: the exact CPL (skipped on the 20k-node graph,
    // where the reference would run 20000 BFS).
    if (f.g.num_nodes() <= 1000) source_counts.push_back(f.g.num_nodes());
    for (int num_sources : source_counts) {
      util::Rng ref_rng(1000 + num_sources);
      const double want =
          testing::RefCharacteristicPathLength(f.g, ref_rng, num_sources);
      const uint64_t want_next = ref_rng.engine()();
      for (int threads : {1, 2, 8}) {
        testing::ScopedThreads scoped(threads);
        util::Rng rng(1000 + num_sources);
        const double got =
            graph::CharacteristicPathLength(f.g, rng, num_sources);
        EXPECT_TRUE(SameBits(got, want))
            << f.name << " sources=" << num_sources << " threads=" << threads
            << ": " << got << " vs " << want;
        EXPECT_EQ(rng.engine()(), want_next)
            << f.name << " sources=" << num_sources << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace cpgan
