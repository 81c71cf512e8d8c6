#include "graph/algorithms.h"

#include <algorithm>
#include <bit>
#include <queue>
#include <span>

#include "obs/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace cpgan::graph {

namespace {

/// Nodes per chunk for per-node metric loops. Per-node work is O(degree^2)
/// for clustering, so chunks stay small enough to balance skewed graphs;
/// the value is a pure function of nothing — chunk boundaries never depend
/// on the thread count.
constexpr int64_t kNodeGrain = 64;

/// Most chunks one NeighbourLinks call makes. Each chunk owns an n-bit mark
/// set, so a call allocates at most 256 · n/8 = 32 bytes per node.
constexpr int64_t kMaxLinkChunks = 256;

/// Number of edges among the neighbours of each node (the triangles through
/// it; 0 below degree 2). N(v) is marked in a bitset, and each u ∈ N(v)
/// counts the marked entries of N(u) past u, so each linked pair {a < b} of
/// N(v) is counted once, at u = a: the same integer as testing every pair
/// with HasEdge. Per-node values are independent, so chunking never changes
/// a result.
std::vector<int64_t> NeighbourLinks(const Graph& g) {
  const int64_t n = g.num_nodes();
  std::vector<int64_t> links(n, 0);
  const int64_t grain =
      std::max(kNodeGrain, (n + kMaxLinkChunks - 1) / kMaxLinkChunks);
  util::ParallelFor(0, n, grain, [&](int64_t v0, int64_t v1) {
    std::vector<uint64_t> marked((n + 63) / 64, 0);
    for (int64_t v = v0; v < v1; ++v) {
      auto nbrs = g.neighbors(static_cast<int>(v));
      if (nbrs.size() < 2) continue;
      for (int w : nbrs) marked[w >> 6] |= uint64_t{1} << (w & 63);
      const int last = nbrs.back();
      int64_t count = 0;
      for (int u : nbrs.first(nbrs.size() - 1)) {
        auto un = g.neighbors(u);
        for (auto it = std::upper_bound(un.begin(), un.end(), u);
             it != un.end() && *it <= last; ++it) {
          count += (marked[*it >> 6] >> (*it & 63)) & 1;
        }
      }
      // Every set bit belongs to N(v), so zeroing its words clears them all.
      for (int w : nbrs) marked[w >> 6] = 0;
      links[v] = count;
    }
  });
  return links;
}

/// Sum of BFS distances and number of reached (source, node) pairs over a
/// BFS from every source at once (Then et al., "The More the Merrier",
/// PVLDB 2014): bit i of a node's word stands for sources[i], so one sweep
/// over the edges advances all of them a level. `nodes` lists the sources'
/// component, which no BFS leaves.
void MultiSourceBfs(const Graph& g, std::span<const int> nodes,
                    std::span<const int> sources, int64_t& total,
                    int64_t& pairs) {
  CPGAN_CHECK_LE(sources.size(), 64u);
  std::vector<uint64_t> seen(g.num_nodes(), 0);
  std::vector<uint64_t> frontier(g.num_nodes(), 0);
  std::vector<uint64_t> next(g.num_nodes(), 0);
  for (size_t i = 0; i < sources.size(); ++i) {
    seen[sources[i]] = frontier[sources[i]] = uint64_t{1} << i;
  }
  total = 0;
  pairs = 0;
  for (int64_t level = 1;; ++level) {
    for (int v : nodes) {
      if (frontier[v] == 0) continue;
      for (int w : g.neighbors(v)) next[w] |= frontier[v];
    }
    bool reached_any = false;
    for (int v : nodes) {
      const uint64_t reached = next[v] & ~seen[v];
      next[v] = 0;
      frontier[v] = reached;
      if (reached == 0) continue;
      reached_any = true;
      seen[v] |= reached;
      const int count = std::popcount(reached);
      total += level * count;
      pairs += count;
    }
    if (!reached_any) return;
  }
}

}  // namespace

std::vector<int> BfsDistances(const Graph& g, int source) {
  CPGAN_CHECK(source >= 0 && source < g.num_nodes());
  std::vector<int> dist(g.num_nodes(), -1);
  std::queue<int> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    int u = frontier.front();
    frontier.pop();
    for (int v : g.neighbors(u)) {
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

std::vector<int> ConnectedComponents(const Graph& g) {
  std::vector<int> component(g.num_nodes(), -1);
  int next_id = 0;
  std::vector<int> stack;
  for (int s = 0; s < g.num_nodes(); ++s) {
    if (component[s] >= 0) continue;
    component[s] = next_id;
    stack.push_back(s);
    while (!stack.empty()) {
      int u = stack.back();
      stack.pop_back();
      for (int v : g.neighbors(u)) {
        if (component[v] < 0) {
          component[v] = next_id;
          stack.push_back(v);
        }
      }
    }
    ++next_id;
  }
  return component;
}

std::vector<int> LargestComponent(const Graph& g) {
  std::vector<int> component = ConnectedComponents(g);
  int k = 0;
  for (int c : component) k = std::max(k, c + 1);
  std::vector<int> counts(k, 0);
  for (int c : component) counts[c] += 1;
  int best = 0;
  for (int c = 1; c < k; ++c) {
    if (counts[c] > counts[best]) best = c;
  }
  std::vector<int> nodes;
  nodes.reserve(counts.empty() ? 0 : counts[best]);
  for (int v = 0; v < g.num_nodes(); ++v) {
    if (component[v] == best) nodes.push_back(v);
  }
  return nodes;
}

std::vector<double> LocalClusteringCoefficients(const Graph& g) {
  CPGAN_TRACE_SPAN("graph/clustering");
  const std::vector<int64_t> links = NeighbourLinks(g);
  std::vector<double> coeffs(g.num_nodes(), 0.0);
  for (int v = 0; v < g.num_nodes(); ++v) {
    const int d = g.degree(v);
    if (d < 2) continue;
    coeffs[v] = 2.0 * static_cast<double>(links[v]) /
                (static_cast<double>(d) * (d - 1));
  }
  return coeffs;
}

double AverageClusteringCoefficient(const Graph& g) {
  if (g.num_nodes() == 0) return 0.0;
  std::vector<double> coeffs = LocalClusteringCoefficients(g);
  double total = 0.0;
  for (double c : coeffs) total += c;
  return total / g.num_nodes();
}

double CharacteristicPathLength(const Graph& g, util::Rng& rng,
                                int num_sources) {
  CPGAN_TRACE_SPAN("graph/cpl");
  const std::vector<int> comp = LargestComponent(g);
  if (comp.size() < 2) return 0.0;
  // Sources are drawn as indices into comp (ascending node ids) and mapped
  // to nodes. The BFS runs on g itself: none leaves the largest component.
  const int n = static_cast<int>(comp.size());
  std::vector<int> sources = comp;
  if (n > num_sources) {
    sources = rng.SampleWithoutReplacement(n, num_sources);
    for (int& s : sources) s = comp[s];
  }
  // One bit-parallel BFS per 64 sources. Every partial is an integer, and
  // the batch partials are summed in batch order, so the value is identical
  // for any thread count and equals the per-source sum while it stays
  // below 2^53.
  const std::span<const int> all(sources);
  const int64_t num_batches = (static_cast<int64_t>(all.size()) + 63) / 64;
  std::vector<int64_t> batch_total(num_batches, 0);
  std::vector<int64_t> batch_pairs(num_batches, 0);
  util::ParallelFor(0, num_batches, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      const size_t first = static_cast<size_t>(b) * 64;
      const size_t count = std::min<size_t>(64, all.size() - first);
      MultiSourceBfs(g, comp, all.subspan(first, count), batch_total[b],
                     batch_pairs[b]);
    }
  });
  double total = 0.0;
  int64_t pairs = 0;
  for (int64_t b = 0; b < num_batches; ++b) {
    total += static_cast<double>(batch_total[b]);
    pairs += batch_pairs[b];
  }
  return pairs > 0 ? total / static_cast<double>(pairs) : 0.0;
}

std::vector<int> BfsOrder(const Graph& g, int start) {
  CPGAN_CHECK(start >= 0 && start < g.num_nodes());
  std::vector<int> order;
  order.reserve(g.num_nodes());
  std::vector<bool> seen(g.num_nodes(), false);
  std::queue<int> frontier;
  seen[start] = true;
  frontier.push(start);
  while (!frontier.empty()) {
    int u = frontier.front();
    frontier.pop();
    order.push_back(u);
    for (int v : g.neighbors(u)) {  // sorted, so ties break by id
      if (!seen[v]) {
        seen[v] = true;
        frontier.push(v);
      }
    }
  }
  for (int v = 0; v < g.num_nodes(); ++v) {
    if (!seen[v]) order.push_back(v);
  }
  return order;
}

std::vector<double> PageRank(const Graph& g, double alpha, int iterations) {
  int n = g.num_nodes();
  if (n == 0) return {};
  std::vector<double> rank(n, 1.0 / n);
  std::vector<double> next(n, 0.0);
  for (int it = 0; it < iterations; ++it) {
    double dangling = 0.0;
    std::fill(next.begin(), next.end(), 0.0);
    for (int u = 0; u < n; ++u) {
      int d = g.degree(u);
      if (d == 0) {
        dangling += rank[u];
        continue;
      }
      double share = rank[u] / d;
      for (int v : g.neighbors(u)) next[v] += share;
    }
    // next[v] = alpha * (shares + dangling/n) + (1-alpha)/n: the dangling
    // mass joins the link shares inside the single damping factor (it is
    // rank a dangling node would have spread over every node), so it is
    // scaled by alpha exactly once. Summing over v gives
    // alpha*(1 - dangling) + alpha*dangling + (1-alpha) = 1 — the vector
    // stays a distribution every iteration, including with sinks
    // (tests/numeric/invariants_test.cc pins this).
    double teleport = (1.0 - alpha) / n + alpha * dangling / n;
    for (int v = 0; v < n; ++v) next[v] = alpha * next[v] + teleport;
    rank.swap(next);
  }
  return rank;
}

std::vector<int> CoreNumbers(const Graph& g) {
  int n = g.num_nodes();
  std::vector<int> degree(n);
  int max_degree = 0;
  for (int v = 0; v < n; ++v) {
    degree[v] = g.degree(v);
    max_degree = std::max(max_degree, degree[v]);
  }
  // Bucket sort nodes by degree (Batagelj-Zaversnik peeling).
  std::vector<int> bin(max_degree + 2, 0);
  for (int v = 0; v < n; ++v) bin[degree[v]] += 1;
  int start = 0;
  for (int d = 0; d <= max_degree; ++d) {
    int count = bin[d];
    bin[d] = start;
    start += count;
  }
  std::vector<int> position(n);
  std::vector<int> ordered(n);
  {
    std::vector<int> cursor(bin.begin(), bin.end() - 1);
    for (int v = 0; v < n; ++v) {
      position[v] = cursor[degree[v]];
      ordered[position[v]] = v;
      cursor[degree[v]] += 1;
    }
  }
  std::vector<int> core = degree;
  for (int i = 0; i < n; ++i) {
    int v = ordered[i];
    for (int u : g.neighbors(v)) {
      if (core[u] > core[v]) {
        // Move u one bucket down: swap it with the first node of its bucket.
        int du = core[u];
        int pu = position[u];
        int pw = bin[du];
        int w = ordered[pw];
        if (u != w) {
          std::swap(ordered[pu], ordered[pw]);
          position[u] = pw;
          position[w] = pu;
        }
        bin[du] += 1;
        core[u] -= 1;
      }
    }
  }
  return core;
}

int64_t CountTriangles(const Graph& g) {
  // Each triangle is a linked neighbour pair at each of its three corners.
  int64_t corners = 0;
  for (int64_t links : NeighbourLinks(g)) corners += links;
  return corners / 3;
}

}  // namespace cpgan::graph
