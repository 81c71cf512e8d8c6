#include "core/assembly.h"

#include <algorithm>
#include <cstddef>
#include <set>

#include "obs/trace.h"
#include "util/check.h"

namespace cpgan::core {

graph::Graph AssembleGraph(int num_nodes, int64_t target_edges,
                           const SubgraphScorer& scorer,
                           const AssemblyOptions& options, util::Rng& rng) {
  CPGAN_CHECK_GE(num_nodes, 0);
  CPGAN_CHECK_GE(target_edges, 0);
  if (options.aborted != nullptr) *options.aborted = false;
  std::set<graph::Edge> edges;
  if (num_nodes < 2 || target_edges == 0) {
    return graph::Graph(num_nodes, {});
  }
  int ns = std::min(options.subgraph_size, num_nodes);
  int chunks_per_pass = (num_nodes + ns - 1) / ns;

  double total_pairs = 0.5 * num_nodes * (num_nodes - 1.0);

  std::vector<int> perm(num_nodes);
  for (int i = 0; i < num_nodes; ++i) perm[i] = i;

  auto aborting = [&options]() {
    if (!options.should_abort || !options.should_abort()) return false;
    if (options.aborted != nullptr) *options.aborted = true;
    return true;
  };

  for (int pass = 0;
       pass < options.max_passes &&
       static_cast<int64_t>(edges.size()) < target_edges;
       ++pass) {
    if (aborting()) break;
    rng.Shuffle(perm);
    for (int chunk = 0; chunk < chunks_per_pass; ++chunk) {
      if (static_cast<int64_t>(edges.size()) >= target_edges) break;
      if (aborting()) break;
      int begin = chunk * ns;
      int end = std::min(num_nodes, begin + ns);
      std::vector<int> ids(perm.begin() + begin, perm.begin() + end);
      std::sort(ids.begin(), ids.end());
      int k = static_cast<int>(ids.size());
      if (k < 2) continue;
      tensor::Matrix probs = scorer(ids);
      CPGAN_CHECK_EQ(probs.rows(), k);
      CPGAN_CHECK_EQ(probs.cols(), k);

      // Step 1: one categorical edge per node (keeps low-degree nodes in).
      {
        CPGAN_TRACE_SPAN("assembly/categorical");
        std::vector<double> row(k);
        for (int i = 0; i < k; ++i) {
          double total = 0.0;
          for (int j = 0; j < k; ++j) {
            row[j] = (j == i) ? 0.0 : std::max(0.0f, probs.At(i, j));
            total += row[j];
          }
          if (total <= 0.0) continue;
          int j = rng.Categorical(row);
          int u = std::min(ids[i], ids[j]);
          int v = std::max(ids[i], ids[j]);
          edges.insert({u, v});
          if (static_cast<int64_t>(edges.size()) >= target_edges) break;
        }
      }
      if (static_cast<int64_t>(edges.size()) >= target_edges) break;

      // Step 2: top-k fill proportional to the subset's share of all pairs.
      CPGAN_TRACE_SPAN("assembly/fill");
      double chunk_pairs = 0.5 * k * (k - 1.0);
      int64_t quota = static_cast<int64_t>(
          static_cast<double>(target_edges) * chunk_pairs / total_pairs * 1.5);
      quota = std::max<int64_t>(quota, k / 2);
      std::vector<std::pair<double, graph::Edge>> scored;
      scored.reserve(static_cast<size_t>(k) * (k - 1) / 2);
      for (int i = 0; i < k; ++i) {
        for (int j = i + 1; j < k; ++j) {
          double p = std::max(1e-9, static_cast<double>(probs.At(i, j)));
          scored.push_back({p, {ids[i], ids[j]}});
        }
      }
      // Total order: key descending, then (u, v) ascending, so tied keys
      // (saturated 1.0f, the 1e-9 floor, repeated table rows) fill the same
      // way on every standard library.
      const auto before = [](const auto& a, const auto& b) {
        return a.first != b.first ? a.first > b.first : a.second < b.second;
      };
      // The fill reads quota entries plus one per pair already taken, and
      // step 1 took at most k of this chunk's pairs. So select a block of
      // quota + k entries, sort only the block, and select the next block
      // when earlier edges use it up: the same entries in the same order as
      // sorting everything.
      const std::ptrdiff_t block = static_cast<std::ptrdiff_t>(quota) + k;
      auto filling = [&] {
        return quota > 0 && static_cast<int64_t>(edges.size()) < target_edges;
      };
      auto next = scored.begin();
      while (next != scored.end() && filling()) {
        auto block_end =
            scored.end() - next > block ? next + block : scored.end();
        std::nth_element(next, block_end, scored.end(), before);
        std::sort(next, block_end, before);
        for (; next != block_end && filling(); ++next) {
          if (edges.insert(next->second).second) --quota;
        }
      }
    }
  }
  std::vector<graph::Edge> edge_list(edges.begin(), edges.end());
  return graph::Graph(num_nodes, edge_list);
}

}  // namespace cpgan::core
