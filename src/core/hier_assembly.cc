#include "core/hier_assembly.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace cpgan::core {

namespace {

/// Upper bound on boundary nodes sampled per community side when stitching
/// a block (the actual count also shrinks with the block's budget).
constexpr int64_t kStitchCandidates = 32;

/// Distributes `total` over items proportionally to `mass`, capped at
/// `capacity`, with deterministic largest-remainder rounding and a greedy
/// top-up pass so capped blocks hand their excess to blocks with room.
std::vector<int64_t> ProportionalSplit(int64_t total,
                                       const std::vector<double>& mass,
                                       const std::vector<int64_t>& capacity) {
  const size_t n = mass.size();
  std::vector<int64_t> out(n, 0);
  double total_mass = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (capacity[i] > 0) total_mass += std::max(0.0, mass[i]);
  }
  if (total <= 0 || total_mass <= 0.0) return out;
  std::vector<double> raw(n, 0.0);
  int64_t assigned = 0;
  for (size_t i = 0; i < n; ++i) {
    if (capacity[i] <= 0) continue;
    raw[i] = static_cast<double>(total) * std::max(0.0, mass[i]) / total_mass;
    out[i] = std::min(static_cast<int64_t>(raw[i]), capacity[i]);
    assigned += out[i];
  }
  // Top-up in descending fractional-remainder order (index tie-break).
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    double ra = raw[a] - static_cast<double>(out[a]);
    double rb = raw[b] - static_cast<double>(out[b]);
    return ra != rb ? ra > rb : a < b;
  });
  int64_t leftover = total - assigned;
  while (leftover > 0) {
    bool progressed = false;
    for (size_t i : order) {
      if (leftover == 0) break;
      if (out[i] < capacity[i]) {
        ++out[i];
        --leftover;
        progressed = true;
      }
    }
    if (!progressed) break;  // every block is at capacity
  }
  return out;
}

/// Picks up to `count` member indices evenly spread over the community (a
/// pure function of (size, count), so stitching is thread-count
/// independent).
std::vector<int> SpreadPick(const std::vector<int>& members, int count) {
  const int size = static_cast<int>(members.size());
  count = std::min(count, size);
  std::vector<int> picked;
  picked.reserve(count);
  for (int i = 0; i < count; ++i) {
    picked.push_back(members[static_cast<int64_t>(i) * size / count]);
  }
  return picked;
}

}  // namespace

uint64_t HierStreamSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 finalizer over the combined state: streams are decorrelated
  // even for adjacent community indices.
  uint64_t z = seed + stream * 0x9E3779B97F4A7C15ULL + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

CommunitySkeleton BuildSkeleton(
    const std::vector<int>& observed_labels, int num_nodes,
    int64_t target_edges,
    const std::vector<std::vector<double>>& block_density) {
  CPGAN_CHECK_GE(num_nodes, 0);
  CPGAN_CHECK_GE(target_edges, 0);
  CommunitySkeleton skeleton;
  skeleton.num_nodes = num_nodes;

  int num_communities = 0;
  for (int label : observed_labels) {
    CPGAN_CHECK_GE(label, 0);
    num_communities = std::max(num_communities, label + 1);
  }
  if (num_communities == 0) num_communities = 1;
  CPGAN_CHECK_EQ(static_cast<int>(block_density.size()), num_communities);

  // Observed community sizes, scaled to num_nodes with largest remainder.
  std::vector<int64_t> observed_sizes(num_communities, 0);
  for (int label : observed_labels) observed_sizes[label] += 1;
  std::vector<double> size_mass(observed_sizes.begin(), observed_sizes.end());
  if (observed_labels.empty()) size_mass[0] = 1.0;  // one flat community
  // Communities with no observed members stay empty (capacity 0), so every
  // output node can borrow an observed node's row from its community.
  std::vector<int64_t> size_cap(num_communities, 0);
  for (int c = 0; c < num_communities; ++c) {
    if (size_mass[c] > 0.0) size_cap[c] = num_nodes;
  }
  std::vector<int64_t> sizes =
      ProportionalSplit(num_nodes, size_mass, size_cap);

  skeleton.members.resize(num_communities);
  int next_id = 0;
  for (int c = 0; c < num_communities; ++c) {
    skeleton.members[c].resize(sizes[c]);
    std::iota(skeleton.members[c].begin(), skeleton.members[c].end(),
              next_id);
    next_id += static_cast<int>(sizes[c]);
  }
  CPGAN_CHECK_EQ(next_id, num_nodes);

  // Budgets: target_edges split over blocks by density x pair count.
  std::vector<double> block_mass;
  std::vector<int64_t> block_cap;
  std::vector<std::pair<int, int>> block_of;
  for (int a = 0; a < num_communities; ++a) {
    CPGAN_CHECK_EQ(static_cast<int>(block_density[a].size()),
                   num_communities);
    for (int b = a; b < num_communities; ++b) {
      const int64_t pairs =
          a == b ? sizes[a] * (sizes[a] - 1) / 2 : sizes[a] * sizes[b];
      block_cap.push_back(std::max<int64_t>(pairs, 0));
      block_mass.push_back(std::max(0.0, block_density[a][b]) *
                           static_cast<double>(std::max<int64_t>(pairs, 0)));
      block_of.push_back({a, b});
    }
  }
  double total_mass = 0.0;
  for (double m : block_mass) total_mass += m;
  if (total_mass <= 0.0) {
    // Degenerate probe (all-zero densities): fall back to pair-count
    // proportional budgets so the skeleton still carries the target.
    for (size_t i = 0; i < block_mass.size(); ++i) {
      block_mass[i] = static_cast<double>(block_cap[i]);
    }
  }
  std::vector<int64_t> budgets =
      ProportionalSplit(target_edges, block_mass, block_cap);

  skeleton.budget.assign(num_communities,
                         std::vector<int64_t>(num_communities, 0));
  for (size_t i = 0; i < block_of.size(); ++i) {
    const auto& [a, b] = block_of[i];
    skeleton.budget[a][b] = budgets[i];
    skeleton.budget[b][a] = budgets[i];
  }
  return skeleton;
}

graph::Graph HierAssembleGraph(const CommunitySkeleton& skeleton,
                               const SubgraphScorer& scorer,
                               const HierAssemblyOptions& options) {
  CPGAN_TRACE_SPAN("hier/assemble");
  const AssemblyOptions& assembly = options.assembly;
  if (assembly.aborted != nullptr) *assembly.aborted = false;
  const int num_communities = skeleton.num_communities();
  const int num_nodes = skeleton.num_nodes;
  CPGAN_GAUGE_SET("hier.communities",
                  static_cast<double>(num_communities));
  if (num_nodes < 2 || num_communities == 0) {
    return graph::Graph(num_nodes, {});
  }

  // Set when any phase stops early: a between-wave poll here, or one
  // community's own AssembleGraph.
  bool stopped = false;
  auto poll_abort = [&assembly, &stopped]() {
    if (!stopped && assembly.should_abort) stopped = assembly.should_abort();
    return stopped;
  };
  // Communities (and stitch block pairs) per wave: one per pool thread, so
  // each wave is one ThreadPool fan-out.
  util::ThreadPool& pool = util::ThreadPool::Global();
  const int wave = pool.num_threads();

  // ----- Intra-community decodes, fanned out in waves. Each community is
  // its own AssembleGraph on its own RNG stream; per-community abort flags
  // avoid cross-thread writes to one shared out-param. -----
  std::vector<std::vector<graph::Edge>> intra(num_communities);
  std::vector<uint8_t> community_aborted(num_communities, 0);
  int waves = 0;
  for (int start = 0; start < num_communities && !poll_abort();
       start += wave) {
    const int end = std::min(num_communities, start + wave);
    ++waves;
    CPGAN_TRACE_SPAN("hier/intra_wave");
    pool.ParallelFor(start, end, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t c = lo; c < hi; ++c) {
        const std::vector<int>& members = skeleton.members[c];
        const int size = static_cast<int>(members.size());
        const int64_t target = skeleton.budget[c][c];
        if (size < 2 || target <= 0) continue;
        AssemblyOptions local = assembly;
        bool local_aborted = false;
        local.aborted = &local_aborted;
        util::Rng rng(HierStreamSeed(options.seed, static_cast<uint64_t>(c)));
        graph::Graph block = AssembleGraph(
            size, target,
            [&scorer, &members](const std::vector<int>& local_ids) {
              std::vector<int> global_ids(local_ids.size());
              for (size_t i = 0; i < local_ids.size(); ++i) {
                global_ids[i] = members[local_ids[i]];
              }
              return scorer(global_ids);
            },
            local, rng);
        std::vector<graph::Edge> edges = block.Edges();
        for (auto& [u, v] : edges) {
          u = members[u];
          v = members[v];
        }
        intra[c] = std::move(edges);
        community_aborted[c] = local_aborted ? 1 : 0;
      }
    });
  }
  for (uint8_t flag : community_aborted) stopped = stopped || flag != 0;

  // ----- Cross-community stitching: per block pair, decode a boundary
  // union and draw the budget without replacement, proportional to the
  // decoded cross-block probabilities. -----
  struct StitchPair {
    int a = 0;
    int b = 0;
    int64_t budget = 0;
    uint64_t stream = 0;
  };
  std::vector<StitchPair> pairs;
  {
    uint64_t pair_index = 0;
    for (int a = 0; a < num_communities; ++a) {
      for (int b = a + 1; b < num_communities; ++b, ++pair_index) {
        if (skeleton.budget[a][b] <= 0) continue;
        if (skeleton.members[a].empty() || skeleton.members[b].empty()) {
          continue;
        }
        pairs.push_back({a, b, skeleton.budget[a][b],
                         static_cast<uint64_t>(num_communities) +
                             pair_index});
      }
    }
  }
  std::vector<std::vector<graph::Edge>> inter(pairs.size());
  for (size_t start = 0; start < pairs.size() && !poll_abort();
       start += static_cast<size_t>(wave)) {
    const size_t end =
        std::min(pairs.size(), start + static_cast<size_t>(wave));
    ++waves;
    CPGAN_TRACE_SPAN("hier/stitch_wave");
    pool.ParallelFor(
        static_cast<int64_t>(start), static_cast<int64_t>(end), 1,
        [&](int64_t lo, int64_t hi) {
          for (int64_t p = lo; p < hi; ++p) {
            const StitchPair& sp = pairs[p];
            // Boundary candidates scale with the budget so tiny blocks
            // pay for tiny decodes, capped by kStitchCandidates.
            const int want = static_cast<int>(std::min<int64_t>(
                kStitchCandidates,
                4 + static_cast<int64_t>(
                        std::ceil(2.0 * std::sqrt(
                                            static_cast<double>(
                                                sp.budget))))));
            std::vector<int> cand_a =
                SpreadPick(skeleton.members[sp.a], want);
            std::vector<int> cand_b =
                SpreadPick(skeleton.members[sp.b], want);
            const int na = static_cast<int>(cand_a.size());
            const int nb = static_cast<int>(cand_b.size());
            if (na == 0 || nb == 0) continue;
            // Communities own disjoint ascending id ranges, so the
            // concatenation is already sorted.
            std::vector<int> ids;
            ids.reserve(na + nb);
            ids.insert(ids.end(), cand_a.begin(), cand_a.end());
            ids.insert(ids.end(), cand_b.begin(), cand_b.end());
            tensor::Matrix probs = scorer(ids);
            std::vector<double> weights(
                static_cast<size_t>(na) * nb);
            for (int i = 0; i < na; ++i) {
              for (int j = 0; j < nb; ++j) {
                weights[static_cast<size_t>(i) * nb + j] = std::max(
                    1e-12, static_cast<double>(probs.At(i, na + j)));
              }
            }
            const int64_t draws = std::min<int64_t>(
                sp.budget, static_cast<int64_t>(weights.size()));
            util::Rng rng(HierStreamSeed(options.seed, sp.stream));
            std::vector<int> picked =
                rng.WeightedSampleWithoutReplacement(
                    weights, static_cast<int>(draws));
            std::sort(picked.begin(), picked.end());
            std::vector<graph::Edge>& out = inter[p];
            out.reserve(picked.size());
            for (int flat : picked) {
              out.push_back({cand_a[flat / nb], cand_b[flat % nb]});
            }
          }
        });
  }

  // Deterministic merge: community order, then block-pair order. Blocks are
  // disjoint, so no duplicate edges are possible.
  std::vector<graph::Edge> edges;
  int64_t intra_total = 0, inter_total = 0;
  for (const auto& block : intra) intra_total += block.size();
  for (const auto& block : inter) inter_total += block.size();
  edges.reserve(intra_total + inter_total);
  for (const auto& block : intra) {
    edges.insert(edges.end(), block.begin(), block.end());
  }
  for (const auto& block : inter) {
    edges.insert(edges.end(), block.begin(), block.end());
  }
  if (stopped) {
    if (assembly.aborted != nullptr) *assembly.aborted = true;
    CPGAN_COUNTER_ADD("hier.aborts", 1);
  }
  CPGAN_COUNTER_ADD("hier.waves", static_cast<uint64_t>(waves));
  CPGAN_COUNTER_ADD("hier.intra_edges", static_cast<uint64_t>(intra_total));
  CPGAN_COUNTER_ADD("hier.inter_edges", static_cast<uint64_t>(inter_total));
  return graph::Graph(num_nodes, edges);
}

}  // namespace cpgan::core
