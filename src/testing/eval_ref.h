#ifndef CPGAN_TESTING_EVAL_REF_H_
#define CPGAN_TESTING_EVAL_REF_H_

#include <vector>

#include "community/louvain.h"
#include "eval/mmd.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace cpgan::testing {

/// \file
/// Trusted references for the eval/community hot paths, preserved verbatim
/// from the pre-rewrite implementations (serial, per-pair re-normalizing
/// MMD; map-of-maps Louvain; per-pair HasEdge clustering and triangles;
/// one BFS per source on a rebuilt component for the CPL). The differential
/// tests in tests/numeric/ pit the optimized versions against these —
/// bitwise for MMD and the graph metrics, and exactly on the golden
/// fixtures for Louvain (see RefLouvain's note on tie-breaking). See
/// docs/TESTING.md.

/// Squared MMD computed the historical way: every kernel evaluation pads
/// and normalizes its own pair of histograms and no Gram matrix is shared,
/// so each k(i,j) is recomputed per estimator term. Serial. Keeps the old
/// std::max(0.0, mmd2) clamp, so non-finite inputs produce 0 here — the
/// silent-NaN bug the optimized path fixes; compare only on finite inputs.
double RefMmd(const std::vector<std::vector<double>>& a,
              const std::vector<std::vector<double>>& b, eval::MmdKernel kernel,
              double sigma, eval::MmdEstimator estimator);

/// Louvain with the historical per-node `unordered_map` neighbor-community
/// accumulation and map-of-maps weighted graph. Every gain it computes is
/// bitwise identical to the flat-CSR rewrite (all weights are exact small
/// integers in double); the only divergence channel is the argmax scan
/// order over neighboring communities when two candidate moves have
/// *exactly* equal gain — the old code scanned in unordered_map iteration
/// order, the rewrite in deterministic first-touch order. On fixtures
/// without consequential ties the partitions agree exactly.
community::LouvainResult RefLouvain(const graph::Graph& g, util::Rng& rng,
                                    double min_gain = 1e-7,
                                    int max_levels = 12);

/// Local clustering coefficients the historical way: one Graph::HasEdge
/// binary search per neighbour pair of every node, parallel over 64-node
/// chunks.
std::vector<double> RefLocalClusteringCoefficients(const graph::Graph& g);

/// Triangle count by the same per-pair HasEdge loop, each triangle counted
/// once at its smallest corner.
int64_t RefCountTriangles(const graph::Graph& g);

/// Characteristic path length the historical way: the largest component is
/// rebuilt with InducedSubgraph, and one BFS runs per source (parallel over
/// sources). Draws from `rng` exactly as graph::CharacteristicPathLength
/// does.
double RefCharacteristicPathLength(const graph::Graph& g, util::Rng& rng,
                                   int num_sources = 64);

}  // namespace cpgan::testing

#endif  // CPGAN_TESTING_EVAL_REF_H_
