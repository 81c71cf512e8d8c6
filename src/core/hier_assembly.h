#ifndef CPGAN_CORE_HIER_ASSEMBLY_H_
#define CPGAN_CORE_HIER_ASSEMBLY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/assembly.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace cpgan::core {

/// \file
/// Hierarchical community-wise assembly (docs/INTERNALS.md, "Hierarchical
/// assembly"): instead of one flat AssembleGraph over random node subsets,
/// the output graph is built from a community skeleton — per-community node
/// sets plus a symmetric inter-community edge-budget matrix. Every
/// community runs its own AssembleGraph on its own RNG stream (fanned out
/// over util::ThreadPool in waves), then cross-community edges are stitched
/// by sampling each block's budget from decoded boundary-node scores. The
/// result is bitwise identical at any thread count: per-community streams
/// never interact, the wave partition is static, and edges are concatenated
/// in community/block order.

/// Community-level skeleton of the output graph.
struct CommunitySkeleton {
  /// Output node ids per community; contiguous ascending ranges in
  /// community order, covering [0, num_nodes) exactly once. Communities may
  /// be empty.
  std::vector<std::vector<int>> members;

  /// Symmetric community-by-community edge budgets: budget[a][a] is the
  /// intra-community target of AssembleGraph on community a, budget[a][b]
  /// (a != b) the number of cross edges to stitch between a and b.
  std::vector<std::vector<int64_t>> budget;

  int num_nodes = 0;

  int num_communities() const { return static_cast<int>(members.size()); }
};

/// Builds a skeleton for `num_nodes` output nodes from observed community
/// labels and estimated block densities:
///  - output community sizes are the observed ones scaled to `num_nodes`
///    (largest-remainder rounding, so outputs larger than the training
///    graph keep the observed community-size profile);
///  - `block_density[a][b]` is the estimated mean edge probability of block
///    (a, b) (symmetric, C x C, C = max label + 1); the target edge count
///    is split over blocks proportionally to density x block pair count,
///    again with largest-remainder rounding, capped at each block's pair
///    count.
CommunitySkeleton BuildSkeleton(
    const std::vector<int>& observed_labels, int num_nodes,
    int64_t target_edges,
    const std::vector<std::vector<double>>& block_density);

struct HierAssemblyOptions {
  /// Per-community assembly knobs. `assembly.should_abort` and
  /// `assembly.aborted` are ignored — cancellation is wired through the
  /// fields below so each community tracks its own abort state.
  AssemblyOptions assembly;

  /// Communities (and stitch block pairs) processed per wave; each wave is
  /// one ThreadPool fan-out, and `should_abort` is polled between waves.
  /// 0 = the global pool's thread count.
  int wave_size = 0;

  /// Base of the per-community (and per-block-pair) RNG streams: community
  /// c draws from Rng(mix(seed, c)), block pair (a, b) from
  /// Rng(mix(seed, C + pair_index)). Streams never interact, which is what
  /// makes the fan-out order irrelevant to the output.
  uint64_t seed = 0;

  /// Cooperative cancellation, polled between waves and (via the inner
  /// AssemblyOptions) at every per-community phase boundary. A cancelled
  /// run returns the valid partial graph built so far.
  std::function<bool()> should_abort;

  /// Out-param: reset to false on entry, true when should_abort stopped any
  /// phase early.
  bool* aborted = nullptr;
};

/// Assembles the skeleton into a full graph. `scorer` receives sorted
/// distinct *output* node ids (community subsets or cross-block boundary
/// unions) and returns the symmetric edge-probability matrix, exactly like
/// flat assembly's SubgraphScorer.
graph::Graph HierAssembleGraph(const CommunitySkeleton& skeleton,
                               const SubgraphScorer& scorer,
                               const HierAssemblyOptions& options);

/// SplitMix64 of (seed, stream) — the per-community stream derivation,
/// exposed for the determinism tests.
uint64_t HierStreamSeed(uint64_t seed, uint64_t stream);

}  // namespace cpgan::core

#endif  // CPGAN_CORE_HIER_ASSEMBLY_H_
