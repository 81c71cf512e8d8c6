#ifndef CPGAN_CORE_ASSEMBLY_H_
#define CPGAN_CORE_ASSEMBLY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.h"
#include "tensor/matrix.h"
#include "util/rng.h"

namespace cpgan::core {

/// Callback that scores a sampled node subset: given sorted distinct node
/// ids, returns a symmetric |ids| x |ids| edge-probability matrix.
using SubgraphScorer =
    std::function<tensor::Matrix(const std::vector<int>&)>;

/// Options for graph assembly (Section III-G).
struct AssemblyOptions {
  /// Nodes decoded per round (n_s). Values >= num_nodes decode in one shot.
  int subgraph_size = 256;

  /// Upper bound on decoding rounds, as a multiple of ceil(n / n_s).
  int max_passes = 8;

  /// Cooperative cancellation, polled at every phase boundary (before each
  /// decode chunk and between passes). When it returns true, assembly stops
  /// and returns the edges built so far; the server polls its request
  /// deadline here, so an expired decode stops without tearing down the
  /// worker (docs/SERVING.md). Unset = never abort.
  std::function<bool()> should_abort;

  /// Out-param: reset to false on entry to AssembleGraph and set to true
  /// when should_abort stopped the assembly early, so one options struct
  /// can be reused across runs without reporting a stale abort.
  bool* aborted = nullptr;
};

/// Assembles a full n-node graph from subgraph probability matrices:
/// every pass partitions a random permutation of the nodes into subsets,
/// decodes each subset, then (1) samples one edge per node from the
/// categorical distribution of its row (so low-degree nodes are not left
/// out) and (2) fills the remaining per-round quota with the top-scoring
/// entries, until `target_edges` edges exist (eq. in Section III-G).
///
/// The categorical step draws from row i's weights max(0, p), the diagonal
/// weighing 0, exactly as Rng::Categorical would: one Uniform() per row
/// with positive total, in row order, scaled by the same left-to-right
/// total. The draw is a binary search of the row's prefix sums
/// (internal::DrawFromPrefix).
///
/// The fill ranks a subset's pairs by key max(1e-9, p) descending, then
/// (u, v) ascending, a total order, so tied keys (saturated probabilities,
/// the 1e-9 floor, repeated rows) always fill in node-pair order. Each pair
/// is one packed 64-bit key whose ascending order is that order. It is a
/// top-k, so it selects rather than sorts: a histogram of the keys' top
/// bits picks the best buckets holding at least quota + |subset| keys,
/// only those are collected, selected and sorted, and the next buckets are
/// collected if pairs already taken use the range up. The result is equal,
/// edge for edge, to sorting every pair. Subsets hold at most 65536 nodes.
/// The edge set grows with the edges taken and is never sized from
/// `target_edges`, which may be any non-negative value.
graph::Graph AssembleGraph(int num_nodes, int64_t target_edges,
                           const SubgraphScorer& scorer,
                           const AssemblyOptions& options, util::Rng& rng);

namespace internal {

/// The categorical draw given `r` = Uniform() * total: the first index
/// whose prefix sum exceeds r, or, when none does (r = total, or an
/// infinite or NaN r), the last index whose weight is > 0, which is what
/// Rng::Categorical's scan returns. `prefix` holds the running sums of
/// max(0, weights[j]) and must end at a positive total.
int DrawFromPrefix(const double* prefix, const float* weights, int count,
                   double r);

}  // namespace internal

}  // namespace cpgan::core

#endif  // CPGAN_CORE_ASSEMBLY_H_
