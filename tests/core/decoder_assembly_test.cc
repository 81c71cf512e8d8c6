#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/assembly.h"
#include "core/decoder.h"
#include "core/sampler.h"
#include "core/variational.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tests/test_util.h"

namespace cpgan::core {
namespace {

namespace t = cpgan::tensor;
using cpgan::testing::TestMatrix;

TEST(VariationalTest, ShapesAndNonNegativeKl) {
  util::Rng rng(1);
  VariationalInference vae(6, 8, 4, rng);
  std::vector<t::Tensor> z_rec = {t::Constant(TestMatrix(10, 6, 1.0f, 1)),
                                  t::Constant(TestMatrix(10, 6, 1.0f, 2))};
  VariationalOutput out = vae.Forward(z_rec, rng, /*sample=*/true);
  ASSERT_EQ(out.z_vae.size(), 2u);
  EXPECT_EQ(out.z_vae[0].rows(), 10);
  EXPECT_EQ(out.z_vae[0].cols(), 4);
  // KL to the prior is non-negative by definition.
  EXPECT_GE(out.kl.Scalar(), -1e-4f);
}

TEST(VariationalTest, DeterministicModeReturnsMeans) {
  util::Rng rng(2);
  VariationalInference vae(6, 8, 4, rng);
  std::vector<t::Tensor> z_rec = {t::Constant(TestMatrix(5, 6, 1.0f, 3))};
  util::Rng sample_rng_a(7);
  util::Rng sample_rng_b(8);
  VariationalOutput a = vae.Forward(z_rec, sample_rng_a, /*sample=*/false);
  VariationalOutput b = vae.Forward(z_rec, sample_rng_b, /*sample=*/false);
  t::Matrix diff = a.z_vae[0].value();
  diff.Axpy(-1.0f, b.z_vae[0].value());
  EXPECT_FLOAT_EQ(diff.Norm(), 0.0f);
}

TEST(VariationalTest, SamplingAddsSharedVarianceNoise) {
  util::Rng rng(3);
  VariationalInference vae(6, 8, 4, rng);
  std::vector<t::Tensor> z_rec = {t::Constant(TestMatrix(5, 6, 1.0f, 4))};
  util::Rng sample_rng(9);
  VariationalOutput mean = vae.Forward(z_rec, sample_rng, /*sample=*/false);
  VariationalOutput sampled = vae.Forward(z_rec, sample_rng, /*sample=*/true);
  t::Matrix diff = sampled.z_vae[0].value();
  diff.Axpy(-1.0f, mean.z_vae[0].value());
  EXPECT_GT(diff.Norm(), 0.0f);
}

TEST(GraphDecoderTest, GruAndConcatShapes) {
  util::Rng rng(4);
  for (bool concat : {false, true}) {
    GraphDecoder decoder(4, 8, 2, concat, rng);
    std::vector<t::Tensor> z = {t::Constant(TestMatrix(7, 4, 1.0f, 5)),
                                t::Constant(TestMatrix(7, 4, 1.0f, 6))};
    t::Tensor h = decoder.DecodeNodes(z);
    EXPECT_EQ(h.rows(), 7);
    EXPECT_EQ(h.cols(), 8);
    t::Tensor logits = decoder.EdgeLogits(h);
    EXPECT_EQ(logits.rows(), 7);
    EXPECT_EQ(logits.cols(), 7);
  }
}

TEST(GraphDecoderTest, LogitsSymmetric) {
  util::Rng rng(5);
  GraphDecoder decoder(4, 8, 1, false, rng);
  std::vector<t::Tensor> z = {t::Constant(TestMatrix(6, 4, 1.0f, 7))};
  t::Matrix logits = decoder.EdgeLogits(decoder.DecodeNodes(z)).value();
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      EXPECT_NEAR(logits.At(i, j), logits.At(j, i), 1e-4f);
    }
  }
}

TEST(GraphDecoderTest, EdgeBiasShiftsLogits) {
  util::Rng rng(6);
  GraphDecoder decoder(4, 8, 1, false, rng);
  EXPECT_NEAR(decoder.edge_bias(), -3.0f, 1e-6f);
}

TEST(GraphDecoderTest, TableScoresMatchTapedDecoder) {
  // ScoreBlock over a table of all rows against the taped decoder run on
  // the gathered latent rows alone. At hidden 32 (latent 16, two levels)
  // every decoder product over >= 32 rows takes the blocked kernel, as the
  // table's pass does, so those blocks agree bit for bit. Smaller blocks
  // take the serial loop, which rounds like the blocked kernel only on the
  // scalar backend (the others fuse multiply-adds).
  namespace k = cpgan::tensor::kernels;
  constexpr int kLatent = 16;
  constexpr int kHidden = 32;
  constexpr int kTableRows = 150;
  const std::string previous = k::Active().name;
  for (const k::KernelOps* backend : k::AvailableBackends()) {
    ASSERT_TRUE(k::SetBackend(backend->name));
    const bool scalar = std::string(backend->name) == "scalar";
    for (bool concat : {false, true}) {
      util::Rng rng(8);
      GraphDecoder decoder(kLatent, kHidden, 2, concat, rng);
      std::vector<t::Matrix> latents = {
          TestMatrix(kTableRows, kLatent, 1.0f, 9),
          TestMatrix(kTableRows, kLatent, 1.0f, 10)};
      t::Matrix table = decoder.EmbeddingTable(latents);
      ASSERT_EQ(table.rows(), kTableRows);
      ASSERT_EQ(table.cols(), kHidden);
      util::Rng pick(11);
      for (int size : {2, 7, 31, 32, 33, 64, 100}) {
        // Random rows, duplicates included (hierarchical outputs larger
        // than the observed graph repeat rows).
        std::vector<int> rows(size);
        for (int& r : rows) r = static_cast<int>(pick.UniformInt(kTableRows));
        std::vector<t::Tensor> z;
        for (const t::Matrix& level : latents) {
          z.push_back(t::GatherRows(t::Constant(level), rows));
        }
        t::Matrix taped =
            t::Sigmoid(decoder.EdgeLogits(decoder.DecodeNodes(z))).value();
        t::Matrix scored = decoder.ScoreBlock(table, rows);
        ASSERT_TRUE(scored.SameShape(taped));
        float max_diff = 0.0f;
        for (int64_t i = 0; i < scored.size(); ++i) {
          max_diff = std::max(max_diff,
                              std::fabs(scored.data()[i] - taped.data()[i]));
        }
        const std::string where = std::string(backend->name) +
                                  (concat ? " concat" : " gru") +
                                  " rows=" + std::to_string(size);
        if (scalar || size >= 32) {
          EXPECT_EQ(std::memcmp(scored.data(), taped.data(),
                                sizeof(float) * scored.size()),
                    0)
              << where << " max diff " << max_diff;
        } else {
          EXPECT_LE(max_diff, 1e-6f) << where;
        }
      }
    }
  }
  EXPECT_TRUE(k::SetBackend(previous));
}

TEST(GraphDecoderTest, ScoreBlockIsSymmetric) {
  // ScoreBlock applies the sigmoid to the upper triangle only and mirrors
  // it, which is exact because e e^T is bitwise symmetric on every kernel
  // path: the serial loop below 32 rows and the blocked kernel above, at
  // block sizes on and off the 32-row mirror tiles.
  namespace k = cpgan::tensor::kernels;
  constexpr int kTableRows = 1200;
  const std::string previous = k::Active().name;
  util::Rng rng(12);
  GraphDecoder decoder(16, 32, 2, false, rng);
  t::Matrix table = decoder.EmbeddingTable(
      {TestMatrix(kTableRows, 16, 1.0f, 13),
       TestMatrix(kTableRows, 16, 1.0f, 14)});
  for (const k::KernelOps* backend : k::AvailableBackends()) {
    ASSERT_TRUE(k::SetBackend(backend->name));
    util::Rng pick(15);
    for (int size : {2, 17, 31, 100, 1024, 1100}) {
      std::vector<int> rows(size);
      for (int& r : rows) r = static_cast<int>(pick.UniformInt(kTableRows));
      const std::string where =
          std::string(backend->name) + " rows=" + std::to_string(size);
      t::Matrix e(size, table.cols());
      for (int i = 0; i < size; ++i) {
        std::memcpy(e.Row(i), table.Row(rows[i]), sizeof(float) * e.cols());
      }
      const t::Matrix logits = t::Matmul(e, e.Transposed());
      const t::Matrix probs = decoder.ScoreBlock(table, rows);
      const t::Matrix mirrored = probs.Transposed();
      EXPECT_EQ(std::memcmp(logits.data(), logits.Transposed().data(),
                            sizeof(float) * logits.size()),
                0)
          << where << ": logits";
      EXPECT_EQ(std::memcmp(probs.data(), mirrored.data(),
                            sizeof(float) * probs.size()),
                0)
          << where << ": probabilities";
      // And the mirrored values are the sigmoid of their own logits.
      int64_t wrong = 0;
      for (int i = 0; i < size; ++i) {
        for (int j = 0; j < size; ++j) {
          const float want =
              t::StableSigmoid(logits.At(i, j) + decoder.edge_bias());
          if (std::memcmp(&want, &probs.Row(i)[j], sizeof(float)) != 0) {
            ++wrong;
          }
        }
      }
      EXPECT_EQ(wrong, 0) << where;
    }
  }
  EXPECT_TRUE(k::SetBackend(previous));
}

TEST(AssemblyTest, OracleScorerRecoversGraph) {
  // Scorer returns 1 on true edges, 0 elsewhere -> assembly must rebuild
  // exactly the target edges.
  int n = 30;
  std::vector<graph::Edge> edges;
  for (int i = 0; i + 1 < n; i += 2) edges.emplace_back(i, i + 1);
  graph::Graph target(n, edges);
  auto scorer = [&target](const std::vector<int>& ids) {
    t::Matrix probs(static_cast<int>(ids.size()),
                    static_cast<int>(ids.size()));
    for (size_t a = 0; a < ids.size(); ++a) {
      for (size_t b = 0; b < ids.size(); ++b) {
        if (a != b && target.HasEdge(ids[a], ids[b])) {
          probs.At(static_cast<int>(a), static_cast<int>(b)) = 1.0f;
        } else {
          probs.At(static_cast<int>(a), static_cast<int>(b)) = 1e-4f;
        }
      }
    }
    return probs;
  };
  util::Rng rng(7);
  AssemblyOptions options;
  options.subgraph_size = n;  // single-shot decode
  graph::Graph out =
      AssembleGraph(n, target.num_edges(), scorer, options, rng);
  EXPECT_EQ(out.num_edges(), target.num_edges());
  for (const auto& [u, v] : target.Edges()) {
    EXPECT_TRUE(out.HasEdge(u, v));
  }
}

TEST(AssemblyTest, RespectsEdgeBudget) {
  auto scorer = [](const std::vector<int>& ids) {
    return t::Matrix(static_cast<int>(ids.size()),
                     static_cast<int>(ids.size()), 0.5f);
  };
  util::Rng rng(8);
  AssemblyOptions options;
  options.subgraph_size = 16;
  graph::Graph out = AssembleGraph(50, 60, scorer, options, rng);
  EXPECT_LE(out.num_edges(), 60);
  EXPECT_GE(out.num_edges(), 30);
}

TEST(AssemblyTest, SubgraphChunkingCoversAllNodes) {
  // Uniform scores with chunked decoding: after several passes most nodes
  // should have at least one edge thanks to the per-node categorical step.
  auto scorer = [](const std::vector<int>& ids) {
    return t::Matrix(static_cast<int>(ids.size()),
                     static_cast<int>(ids.size()), 0.3f);
  };
  util::Rng rng(9);
  AssemblyOptions options;
  options.subgraph_size = 20;
  graph::Graph out = AssembleGraph(100, 300, scorer, options, rng);
  int isolated = 0;
  for (int v = 0; v < out.num_nodes(); ++v) {
    if (out.degree(v) == 0) ++isolated;
  }
  EXPECT_LT(isolated, 10);
}

TEST(AssemblyTest, EmptyCases) {
  auto scorer = [](const std::vector<int>& ids) {
    return t::Matrix(static_cast<int>(ids.size()),
                     static_cast<int>(ids.size()), 0.5f);
  };
  util::Rng rng(10);
  AssemblyOptions options;
  EXPECT_EQ(AssembleGraph(0, 0, scorer, options, rng).num_nodes(), 0);
  EXPECT_EQ(AssembleGraph(5, 0, scorer, options, rng).num_edges(), 0);
  EXPECT_EQ(AssembleGraph(1, 3, scorer, options, rng).num_edges(), 0);
}

TEST(SamplerTest, DegreeProportionalPrefersHubs) {
  // Star graph: the hub must be selected almost always.
  std::vector<graph::Edge> edges;
  for (int i = 1; i < 50; ++i) edges.emplace_back(0, i);
  graph::Graph g(50, edges);
  util::Rng rng(11);
  int hub_hits = 0;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<int> sample = DegreeProportionalSample(g, 10, rng);
    EXPECT_EQ(sample.size(), 10u);
    EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
    if (std::binary_search(sample.begin(), sample.end(), 0)) ++hub_hits;
  }
  EXPECT_GT(hub_hits, 95);
}

TEST(SamplerTest, HandlesEdgelessGraph) {
  graph::Graph g(20);
  util::Rng rng(12);
  std::vector<int> sample = DegreeProportionalSample(g, 5, rng);
  EXPECT_EQ(sample.size(), 5u);
}

TEST(SamplerTest, UniformSampleBounds) {
  util::Rng rng(13);
  std::vector<int> sample = UniformNodeSample(10, 20, rng);
  EXPECT_EQ(sample.size(), 10u);  // clamped to n
}

}  // namespace
}  // namespace cpgan::core

namespace cpgan::core {
namespace {

TEST(AssemblyTest, TopKFillDeterministicallyPicksHighest) {
  // With distinct scores and no categorical noise possible (quota covers
  // everything), top-k fill must select exactly the highest-score pairs.
  auto scorer = [](const std::vector<int>& ids) {
    tensor::Matrix probs(static_cast<int>(ids.size()),
                         static_cast<int>(ids.size()));
    for (size_t a = 0; a < ids.size(); ++a) {
      for (size_t b = 0; b < ids.size(); ++b) {
        if (a == b) continue;
        // Pair (0,1) highest, then (0,2), ...
        probs.At(static_cast<int>(a), static_cast<int>(b)) =
            1.0f / (1.0f + ids[a] + ids[b]);
      }
    }
    return probs;
  };
  util::Rng rng(32);
  AssemblyOptions options;
  options.subgraph_size = 10;
  graph::Graph out = AssembleGraph(10, 3, scorer, options, rng);
  EXPECT_TRUE(out.HasEdge(0, 1));
}

/// Reference assembly: AssembleGraph's passes, chunks and RNG draws, with
/// the top-k fill taken from a full sort of every pair under the total
/// order (key descending, then (u, v) ascending). Sets `*past_first_block`
/// when some fill had to read beyond quota + k entries, the case where
/// AssembleGraph selects a second block.
graph::Graph FullSortAssemble(int num_nodes, int64_t target_edges,
                              const SubgraphScorer& scorer,
                              const AssemblyOptions& options, util::Rng& rng,
                              bool* past_first_block) {
  std::set<graph::Edge> edges;
  const int ns = std::min(options.subgraph_size, num_nodes);
  const int chunks_per_pass = (num_nodes + ns - 1) / ns;
  const double total_pairs = 0.5 * num_nodes * (num_nodes - 1.0);
  std::vector<int> perm(num_nodes);
  for (int i = 0; i < num_nodes; ++i) perm[i] = i;
  auto full = [&] {
    return static_cast<int64_t>(edges.size()) >= target_edges;
  };
  for (int pass = 0; pass < options.max_passes && !full(); ++pass) {
    rng.Shuffle(perm);
    for (int chunk = 0; chunk < chunks_per_pass && !full(); ++chunk) {
      const int begin = chunk * ns;
      const int end = std::min(num_nodes, begin + ns);
      std::vector<int> ids(perm.begin() + begin, perm.begin() + end);
      std::sort(ids.begin(), ids.end());
      const int k = static_cast<int>(ids.size());
      if (k < 2) continue;
      tensor::Matrix probs = scorer(ids);
      std::vector<double> row(k);
      for (int i = 0; i < k && !full(); ++i) {
        double total = 0.0;
        for (int j = 0; j < k; ++j) {
          row[j] = (j == i) ? 0.0 : std::max(0.0f, probs.At(i, j));
          total += row[j];
        }
        if (total <= 0.0) continue;
        const int j = rng.Categorical(row);
        edges.insert({std::min(ids[i], ids[j]), std::max(ids[i], ids[j])});
      }
      if (full()) break;
      const double chunk_pairs = 0.5 * k * (k - 1.0);
      int64_t quota = static_cast<int64_t>(static_cast<double>(target_edges) *
                                           chunk_pairs / total_pairs * 1.5);
      quota = std::max<int64_t>(quota, k / 2);
      const int64_t block = quota + k;
      std::vector<std::pair<double, graph::Edge>> scored;
      for (int i = 0; i < k; ++i) {
        for (int j = i + 1; j < k; ++j) {
          const double p =
              std::max(1e-9, static_cast<double>(probs.At(i, j)));
          scored.push_back({p, {ids[i], ids[j]}});
        }
      }
      std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
        return a.first != b.first ? a.first > b.first : a.second < b.second;
      });
      int64_t read = 0;
      for (const auto& entry : scored) {
        if (quota <= 0 || full()) break;
        if (++read > block) *past_first_block = true;
        if (edges.insert(entry.second).second) --quota;
      }
    }
  }
  return graph::Graph(num_nodes,
                      std::vector<graph::Edge>(edges.begin(), edges.end()));
}

/// Symmetric scorer from a function of the unordered node pair.
SubgraphScorer PairScorer(std::function<float(int, int)> score) {
  return [score](const std::vector<int>& ids) {
    const int k = static_cast<int>(ids.size());
    tensor::Matrix probs(k, k);
    for (int a = 0; a < k; ++a) {
      for (int b = 0; b < k; ++b) {
        if (a != b) {
          probs.At(a, b) = score(std::min(ids[a], ids[b]),
                                 std::max(ids[a], ids[b]));
        }
      }
    }
    return probs;
  };
}

/// Index of the pair u < v among the n(n-1)/2 pairs in (u, v) order.
int PairIndex(int n, int u, int v) {
  return u * (2 * n - u - 1) / 2 + v - u - 1;
}

/// Runs AssembleGraph and FullSortAssemble from the same seed and expects
/// the same edges and the same number of RNG draws. Returns whether some
/// fill read past its first quota + k entries.
bool ExpectMatchesFullSort(const std::string& name, int n, int subgraph,
                           int64_t target, const SubgraphScorer& scorer) {
  AssemblyOptions options;
  options.subgraph_size = subgraph;
  util::Rng rng(41);
  util::Rng ref_rng(41);
  bool past_first_block = false;
  const graph::Graph got = AssembleGraph(n, target, scorer, options, rng);
  const graph::Graph want =
      FullSortAssemble(n, target, scorer, options, ref_rng, &past_first_block);
  EXPECT_EQ(got.Edges(), want.Edges())
      << name << " n " << n << " subgraph " << subgraph << " target "
      << target;
  // Both consumed the same draws.
  EXPECT_EQ(rng.engine()(), ref_rng.engine()())
      << name << " n " << n << " subgraph " << subgraph << " target "
      << target;
  return past_first_block;
}

TEST(AssemblyTest, BlockSelectionMatchesFullSort) {
  const int n = 64;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::pair<const char*, SubgraphScorer> scorers[] = {
      // A few quantized levels: most keys tie with many others.
      {"quantized", PairScorer([](int u, int v) {
         const float levels[] = {0.05f, 0.2f, 0.6f, 0.9f};
         return levels[(u * 31 + v * 17) % 4];
       })},
      // Saturated probabilities on a third of the pairs.
      {"saturated",
       PairScorer([](int u, int v) { return (u + v) % 3 == 0 ? 1.0f : 0.4f; })},
      // Everything under the 1e-9 floor (zeros, denormal-range, 5e-10)
      // except a sparse set of real scores.
      {"floor", PairScorer([](int u, int v) {
         if ((u * v) % 11 == 1) return 0.3f;
         const float low[] = {0.0f, 1e-12f, 5e-10f};
         return low[(u + 2 * v) % 3];
       })},
      // Scores fall with u + v in steps, so every chunk ranks the same
      // low-id pairs first and later passes find them taken.
      {"shared top", PairScorer([](int u, int v) {
         return 1.0f / (1.0f + static_cast<float>((u + v) / 8));
       })},
      // Values no decoder emits. The fill's key max(1e-9, p) sends NaN,
      // -inf, -1, -0.0f, +0.0f, denormals and 1e-9f (just under 1e-9 as a
      // double) to the floor; its float neighbour above 1e-9 keeps its own
      // key, and +inf outranks every finite key. The categorical weight
      // max(0, p) zeroes NaN and the negatives; a row holding +inf (nodes
      // 0 and 3 mod 7, when the pair shares a chunk) has an infinite
      // total, so its draw lands on its last positive entry.
      {"hostile", PairScorer([nan, inf](int u, int v) {
         if (u % 7 == 0 && v == u + 3) return inf;
         const float values[] = {nan,
                                 -inf,
                                 -1.0f,
                                 -0.0f,
                                 0.0f,
                                 1e-40f,
                                 std::numeric_limits<float>::denorm_min(),
                                 std::nextafter(1e-9f, 0.0f),
                                 1e-9f,
                                 std::nextafter(1e-9f, 1.0f),
                                 3e-9f,
                                 0.25f,
                                 0.75f,
                                 1.0f};
         return values[(u * 5 + v * 3) % 14];
       })},
      // Nodes 0 mod 4 have no mass (0, -0, NaN or -1 everywhere). A node
      // 1 mod 4 has one positive entry, at its partner u + 1, so its row
      // has a single positive weight when both share a chunk and no mass
      // otherwise. Nodes 2 and 3 mod 4 score each other.
      {"sparse rows", PairScorer([nan](int u, int v) {
         if (u % 4 == 0 || v % 4 == 0) {
           const float empty[] = {0.0f, -0.0f, nan, -1.0f};
           return empty[(u + v) % 4];
         }
         if (u % 4 == 1 || v % 4 == 1) return v == u + 1 ? 0.6f : 0.0f;
         return 0.05f * static_cast<float>((u * v) % 7 + 1);
       })},
      // Every pair has its own key, (1 + m/16) * 2^e, falling in pair
      // order, so keys differ in the exponent or the top four mantissa
      // bits: a selection that buckets keys by their top 12 or more bits
      // finds each pair alone in its bucket, and its first range holds
      // exactly quota + k keys. The low-id pairs rank first in every chunk,
      // so later passes find that range taken.
      {"distinct", PairScorer([](int u, int v) {
         const int p = PairIndex(n, u, v);
         return std::ldexp(1.0f + static_cast<float>(15 - p % 16) / 16.0f,
                           127 - p / 16);
       })},
  };
  bool saw_second_block = false;
  for (const auto& [name, scorer] : scorers) {
    bool scorer_second_block = false;
    for (int subgraph : {n, 32, 16}) {
      for (int64_t target : {40, 300, 900}) {
        scorer_second_block |=
            ExpectMatchesFullSort(name, n, subgraph, target, scorer);
      }
    }
    if (std::string(name) == "distinct") {
      EXPECT_TRUE(scorer_second_block);
    }
    saw_second_block = saw_second_block || scorer_second_block;
  }
  // At least one fill found its first block used up by earlier edges.
  EXPECT_TRUE(saw_second_block);

  // A target far above the n(n-1)/2 pairs: every fill's quota covers its
  // whole chunk, and the edge set holds at most the 780 pairs of 40 nodes.
  for (int subgraph : {40, 16}) {
    for (int64_t target : {int64_t{100000}, int64_t{1000000000000000}}) {
      ExpectMatchesFullSort("huge target", 40, subgraph, target,
                            scorers[0].second);
    }
  }

  // Sigmoids of hashed logits in [-24, 24) at the flat path's chunk size:
  // about 15% of the pairs saturate to exactly 1.0f, so each 1024-node
  // chunk's best keys are one tie of ~80k pairs broken by node pair. The
  // larger target runs a second pass, whose chunks find many of their
  // saturated pairs taken.
  const SubgraphScorer sigmoid = PairScorer([](int u, int v) {
    uint64_t h =
        (static_cast<uint64_t>(u) * 1000003u + v) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ULL;
    const float unit = static_cast<float>(h >> 40) / 16777216.0f;
    return t::StableSigmoid(48.0f * unit - 24.0f);
  });
  for (int64_t target : {3000, 40000}) {
    ExpectMatchesFullSort("saturated sigmoid", 1500, 1024, target, sigmoid);
  }
}

TEST(AssemblyTest, TargetsNearInt64MaxTakeEveryPair) {
  // A fill quota of at least the chunk's pairs takes all of them, so the
  // targets 9e18 and INT64_MAX give the 1e15 graph edge for edge.
  const SubgraphScorer scorer = PairScorer([](int u, int v) {
    return 0.05f * static_cast<float>((u * 31 + v * 17) % 19 + 1);
  });
  for (int subgraph : {40, 16}) {
    AssemblyOptions options;
    options.subgraph_size = subgraph;
    util::Rng base_rng(41);
    const graph::Graph base =
        AssembleGraph(40, int64_t{1000000000000000}, scorer, options, base_rng);
    const auto base_next_draw = base_rng.engine()();
    for (int64_t target : {int64_t{9000000000000000000},
                           std::numeric_limits<int64_t>::max()}) {
      util::Rng rng(41);
      EXPECT_EQ(AssembleGraph(40, target, scorer, options, rng).Edges(),
                base.Edges())
          << "subgraph " << subgraph << " target " << target;
      EXPECT_EQ(rng.engine()(), base_next_draw);
    }
  }
}

/// Rng::Categorical's scan, verbatim, with its Uniform() * total given as r.
int CategoricalScan(const std::vector<double>& weights, double r) {
  double acc = 0.0;
  int last_positive = -1;
  for (int i = 0; i < static_cast<int>(weights.size()); ++i) {
    if (weights[i] <= 0.0) continue;
    acc += weights[i];
    last_positive = i;
    if (r < acc) return i;
  }
  return last_positive;
}

TEST(AssemblyTest, PrefixDrawMatchesCategoricalScan) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<std::vector<float>> rows = {
      {0.5f, 0.25f, 0.25f},
      // Zero weights before, between and after the mass.
      {0.0f, 0.3f, 0.0f, 0.0f, 0.7f, 0.0f},
      // Negatives and NaN weigh 0; the last positive entry is a denormal.
      {-1.0f, nan, 0.2f, -0.0f, 1e-40f},
      // Entries the running sum absorbs: the prefix stays flat over them.
      {1e30f, 1.0f, 1e-30f, 2.0f, 0.0f},
      // A single positive entry.
      {0.0f, 0.0f, 0.9f, 0.0f},
      // An infinite total: r = Uniform() * inf is inf, or NaN at 0.
      {0.1f, inf, 0.3f, 0.0f},
  };
  for (size_t row = 0; row < rows.size(); ++row) {
    const std::vector<float>& w = rows[row];
    const int k = static_cast<int>(w.size());
    std::vector<double> weights(k);
    std::vector<double> prefix(k);
    double acc = 0.0;
    for (int j = 0; j < k; ++j) {
      weights[j] = std::max(0.0f, w[j]);
      prefix[j] = acc += weights[j];
    }
    const double total = prefix.back();
    ASSERT_GT(total, 0.0);
    std::vector<double> points = {0.0,
                                  total,
                                  std::nextafter(total, 0.0),
                                  0.5 * total,
                                  std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::quiet_NaN()};
    points.insert(points.end(), prefix.begin(), prefix.end());
    for (double r : points) {
      EXPECT_EQ(internal::DrawFromPrefix(prefix.data(), w.data(), k, r),
                CategoricalScan(weights, r))
          << "row " << row << " r " << r;
    }
  }

  // The draw itself: Rng::Categorical against DrawFromPrefix on the same
  // stream, over rows with zeros and a few large weights.
  util::Rng data(51);
  util::Rng a(52);
  util::Rng b(52);
  for (int trial = 0; trial < 2000; ++trial) {
    const int k = 1 + static_cast<int>(data.UniformInt(40));
    std::vector<float> w(k);
    std::vector<double> weights(k);
    std::vector<double> prefix(k);
    double acc = 0.0;
    for (int j = 0; j < k; ++j) {
      const double u = data.Uniform();
      w[j] = u < 0.3 ? 0.0f : static_cast<float>(u < 0.95 ? u : 1e6 * u);
      weights[j] = w[j];
      prefix[j] = acc += weights[j];
    }
    if (acc <= 0.0) continue;
    EXPECT_EQ(a.Categorical(weights),
              internal::DrawFromPrefix(prefix.data(), w.data(), k,
                                       b.Uniform() * acc))
        << "trial " << trial;
  }
  EXPECT_EQ(a.engine()(), b.engine()());
}

TEST(AssemblyTest, TiedKeysBreakByNodePair) {
  // Constant scores tie every key, so the top-k fill must take the pairs in
  // (u, v) order, skipping those the categorical step already took. With
  // one chunk the output is then a complete prefix of the pairs in (u, v)
  // order plus at most one categorical edge per node beyond it; a score of
  // 0 leaves every row without mass, so there are no categorical edges and
  // the output is exactly the first `target` pairs.
  const int n = 30;
  const int64_t target = 150;
  for (float score : {0.0f, 0.5f, 1.0f}) {
    auto scorer = [score](const std::vector<int>& ids) {
      const int k = static_cast<int>(ids.size());
      return tensor::Matrix(k, k, score);
    };
    AssemblyOptions options;
    options.subgraph_size = n;
    util::Rng rng(34);
    graph::Graph out = AssembleGraph(n, target, scorer, options, rng);
    ASSERT_EQ(out.num_edges(), target) << "score " << score;
    int64_t prefix = 0;
    bool complete = true;
    for (int u = 0; u < n && complete; ++u) {
      for (int v = u + 1; v < n && complete; ++v) {
        complete = out.HasEdge(u, v);
        if (complete) ++prefix;
      }
    }
    if (score == 0.0f) {
      EXPECT_EQ(prefix, target);
    } else {
      EXPECT_GE(prefix, target - n) << "score " << score;
    }
  }
}

TEST(AssemblyTest, AbortedFlagResetsWhenOptionsAreReused) {
  // Regression: `aborted` used to keep its stale true across runs, so a
  // reused options struct reported phantom aborts.
  auto scorer = [](const std::vector<int>& ids) {
    const int k = static_cast<int>(ids.size());
    return tensor::Matrix(k, k, 0.5f);
  };
  util::Rng rng(33);
  AssemblyOptions options;
  options.subgraph_size = 8;
  bool aborted = false;
  options.aborted = &aborted;
  options.should_abort = [] { return true; };
  AssembleGraph(40, 100, scorer, options, rng);
  EXPECT_TRUE(aborted);
  options.should_abort = [] { return false; };
  graph::Graph out = AssembleGraph(40, 100, scorer, options, rng);
  EXPECT_FALSE(aborted);
  EXPECT_GT(out.num_edges(), 0);
}

}  // namespace
}  // namespace cpgan::core
