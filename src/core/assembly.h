#ifndef CPGAN_CORE_ASSEMBLY_H_
#define CPGAN_CORE_ASSEMBLY_H_

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
/// The fill ranks a subset's pairs by key descending, then (u, v)
/// ascending, a total order, so tied keys (saturated probabilities, the
/// 1e-9 floor, repeated rows) always fill in node-pair order. It is a
/// top-k, so it selects rather than sorts: std::nth_element picks the best
/// quota + |subset| entries, only those are sorted, and the next block is
/// selected if pairs already taken use the block up. The result is equal,
/// edge for edge, to sorting every pair.
graph::Graph AssembleGraph(int num_nodes, int64_t target_edges,
                           const SubgraphScorer& scorer,
                           const AssemblyOptions& options, util::Rng& rng);

}  // namespace cpgan::core

#endif  // CPGAN_CORE_ASSEMBLY_H_
