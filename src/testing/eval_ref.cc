#include "testing/eval_ref.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "graph/algorithms.h"
#include "util/thread_pool.h"

namespace cpgan::testing {
namespace {

// ---------------------------------------------------------------------------
// Historical MMD path: per-pair padding + normalization, no shared Gram
// matrix. Kept verbatim (modulo namespace) from the pre-rewrite
// src/eval/mmd.cc so the optimized path has a bitwise oracle.
// ---------------------------------------------------------------------------

void RefCommonSupportNormalized(const std::vector<double>& p,
                                const std::vector<double>& q,
                                std::vector<double>& pn,
                                std::vector<double>& qn) {
  const size_t size = std::max(p.size(), q.size());
  pn.assign(size, 0.0);
  qn.assign(size, 0.0);
  std::copy(p.begin(), p.end(), pn.begin());
  std::copy(q.begin(), q.end(), qn.begin());
  auto normalize = [](std::vector<double>& h) {
    double total = 0.0;
    for (double v : h) total += v;
    if (total <= 0.0) {
      std::fill(h.begin(), h.end(), 0.0);
      return;
    }
    for (double& v : h) v /= total;
  };
  normalize(pn);
  normalize(qn);
}

double RefEmd1D(const std::vector<double>& p, const std::vector<double>& q) {
  std::vector<double> pn;
  std::vector<double> qn;
  RefCommonSupportNormalized(p, q, pn, qn);
  double cdf_diff = 0.0;
  double total = 0.0;
  for (size_t i = 0; i < pn.size(); ++i) {
    cdf_diff += pn[i] - qn[i];
    total += std::fabs(cdf_diff);
  }
  return total;
}

double RefTotalVariation(const std::vector<double>& p,
                         const std::vector<double>& q) {
  std::vector<double> pn;
  std::vector<double> qn;
  RefCommonSupportNormalized(p, q, pn, qn);
  double total = 0.0;
  for (size_t i = 0; i < pn.size(); ++i) total += std::fabs(pn[i] - qn[i]);
  return 0.5 * total;
}

double RefKernel(const std::vector<double>& p, const std::vector<double>& q,
                 eval::MmdKernel kernel, double sigma) {
  double dist = kernel == eval::MmdKernel::kGaussianEmd
                    ? RefEmd1D(p, q)
                    : RefTotalVariation(p, q);
  return std::exp(-dist * dist / (2.0 * sigma * sigma));
}

// ---------------------------------------------------------------------------
// Historical Louvain: per-node unordered_map accumulation over a map-of-maps
// weighted graph. Kept verbatim from the pre-rewrite src/community/louvain.cc.
// ---------------------------------------------------------------------------

struct RefWeightedGraph {
  std::vector<std::unordered_map<int, double>> adjacency;
  std::vector<double> self_loops;
  std::vector<double> weighted_degree;
  double total_weight = 0.0;  // 2m

  int size() const { return static_cast<int>(adjacency.size()); }
};

RefWeightedGraph RefFromGraph(const graph::Graph& g) {
  RefWeightedGraph wg;
  wg.adjacency.resize(g.num_nodes());
  wg.self_loops.assign(g.num_nodes(), 0.0);
  wg.weighted_degree.assign(g.num_nodes(), 0.0);
  for (int u = 0; u < g.num_nodes(); ++u) {
    for (int v : g.neighbors(u)) {
      wg.adjacency[u][v] = 1.0;
    }
    wg.weighted_degree[u] = static_cast<double>(g.degree(u));
    wg.total_weight += wg.weighted_degree[u];
  }
  return wg;
}

bool RefLocalMoving(const RefWeightedGraph& wg, util::Rng& rng,
                    double min_gain, std::vector<int>& community) {
  int n = wg.size();
  std::vector<double> community_degree(n, 0.0);
  for (int v = 0; v < n; ++v) {
    community_degree[community[v]] += wg.weighted_degree[v];
  }

  double two_m = wg.total_weight;
  if (two_m <= 0.0) return false;

  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(order);

  bool any_move = false;
  bool improved = true;
  int sweeps = 0;
  while (improved && sweeps < 32) {
    improved = false;
    ++sweeps;
    for (int idx = 0; idx < n; ++idx) {
      int u = order[idx];
      int cu = community[u];
      std::unordered_map<int, double> links;
      for (const auto& [v, w] : wg.adjacency[u]) {
        links[community[v]] += w;
      }
      community_degree[cu] -= wg.weighted_degree[u];
      double base = links.count(cu) ? links[cu] : 0.0;
      double best_gain = 0.0;
      int best_comm = cu;
      for (const auto& [c, w] : links) {
        if (c == cu) continue;
        double gain = (w - base) -
                      wg.weighted_degree[u] *
                          (community_degree[c] - community_degree[cu]) / two_m;
        if (gain > best_gain + min_gain) {
          best_gain = gain;
          best_comm = c;
        }
      }
      community[u] = best_comm;
      community_degree[best_comm] += wg.weighted_degree[u];
      if (best_comm != cu) {
        improved = true;
        any_move = true;
      }
    }
  }
  return any_move;
}

RefWeightedGraph RefAggregate(const RefWeightedGraph& wg,
                              const std::vector<int>& community,
                              int num_comms) {
  RefWeightedGraph out;
  out.adjacency.resize(num_comms);
  out.self_loops.assign(num_comms, 0.0);
  out.weighted_degree.assign(num_comms, 0.0);
  out.total_weight = wg.total_weight;
  for (int u = 0; u < wg.size(); ++u) {
    int cu = community[u];
    out.self_loops[cu] += wg.self_loops[u];
    for (const auto& [v, w] : wg.adjacency[u]) {
      int cv = community[v];
      if (cu == cv) {
        out.self_loops[cu] += w;
      } else {
        out.adjacency[cu][cv] += w;
      }
    }
  }
  for (int c = 0; c < num_comms; ++c) {
    double deg = out.self_loops[c];
    for (const auto& [v, w] : out.adjacency[c]) deg += w;
    out.weighted_degree[c] = deg;
  }
  return out;
}

}  // namespace

double RefMmd(const std::vector<std::vector<double>>& a,
              const std::vector<std::vector<double>>& b,
              eval::MmdKernel kernel, double sigma,
              eval::MmdEstimator estimator) {
  auto cross_mean = [&](const std::vector<std::vector<double>>& x,
                        const std::vector<std::vector<double>>& y) {
    double total = 0.0;
    for (const auto& p : x) {
      for (const auto& q : y) total += RefKernel(p, q, kernel, sigma);
    }
    return total / (static_cast<double>(x.size()) * y.size());
  };
  auto within_mean = [&](const std::vector<std::vector<double>>& x) {
    const size_t n = x.size();
    if (estimator == eval::MmdEstimator::kBiased || n < 2) {
      return cross_mean(x, x);
    }
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        total += RefKernel(x[i], x[j], kernel, sigma);
      }
    }
    return total / (static_cast<double>(n) * (n - 1));
  };
  double mmd2 = within_mean(a) + within_mean(b) - 2.0 * cross_mean(a, b);
  return std::max(0.0, mmd2);
}

community::LouvainResult RefLouvain(const graph::Graph& g, util::Rng& rng,
                                    double min_gain, int max_levels) {
  community::LouvainResult result;
  int n = g.num_nodes();
  std::vector<int> node_to_super(n);
  for (int v = 0; v < n; ++v) node_to_super[v] = v;

  RefWeightedGraph wg = RefFromGraph(g);
  for (int level = 0; level < max_levels; ++level) {
    std::vector<int> community(wg.size());
    for (int v = 0; v < wg.size(); ++v) community[v] = v;
    bool moved = RefLocalMoving(wg, rng, min_gain, community);

    std::unordered_map<int, int> compact;
    for (int& c : community) {
      auto [it, ignored] = compact.emplace(c, static_cast<int>(compact.size()));
      c = it->second;
    }
    int num_comms = static_cast<int>(compact.size());

    std::vector<int> labels(n);
    for (int v = 0; v < n; ++v) {
      node_to_super[v] = community[node_to_super[v]];
      labels[v] = node_to_super[v];
    }
    result.levels.emplace_back(std::move(labels));

    if (!moved || num_comms == wg.size()) break;
    wg = RefAggregate(wg, community, num_comms);
    if (num_comms <= 1) break;
  }
  if (result.levels.empty()) {
    std::vector<int> labels(n, 0);
    if (n == 0) labels.clear();
    result.levels.emplace_back(std::move(labels));
  }
  result.modularity = community::Modularity(g, result.FinalPartition());
  return result;
}

// ---------------------------------------------------------------------------
// Historical graph metrics: per-pair HasEdge clustering and triangle loops,
// and one BFS per source over a rebuilt largest component. Kept verbatim
// from the pre-bitset src/graph/algorithms.cc.
// ---------------------------------------------------------------------------

constexpr int64_t kRefNodeGrain = 64;

std::vector<double> RefLocalClusteringCoefficients(const graph::Graph& g) {
  std::vector<double> coeffs(g.num_nodes(), 0.0);
  util::ParallelFor(0, g.num_nodes(), kRefNodeGrain,
                    [&](int64_t v0, int64_t v1) {
    for (int64_t v = v0; v < v1; ++v) {
      auto nbrs = g.neighbors(static_cast<int>(v));
      int d = static_cast<int>(nbrs.size());
      if (d < 2) continue;
      int64_t links = 0;
      for (size_t i = 0; i < nbrs.size(); ++i) {
        for (size_t j = i + 1; j < nbrs.size(); ++j) {
          if (g.HasEdge(nbrs[i], nbrs[j])) ++links;
        }
      }
      coeffs[v] = 2.0 * static_cast<double>(links) /
                  (static_cast<double>(d) * (d - 1));
    }
  });
  return coeffs;
}

int64_t RefCountTriangles(const graph::Graph& g) {
  const int64_t num_chunks =
      util::ThreadPool::NumChunks(0, g.num_nodes(), kRefNodeGrain);
  std::vector<int64_t> partial(num_chunks, 0);
  util::ParallelForChunked(
      0, g.num_nodes(), kRefNodeGrain,
      [&](int64_t u0, int64_t u1, int64_t chunk) {
        int64_t triangles = 0;
        for (int64_t u = u0; u < u1; ++u) {
          auto nbrs = g.neighbors(static_cast<int>(u));
          for (size_t i = 0; i < nbrs.size(); ++i) {
            if (nbrs[i] <= u) continue;
            for (size_t j = i + 1; j < nbrs.size(); ++j) {
              if (g.HasEdge(nbrs[i], nbrs[j])) ++triangles;
            }
          }
        }
        partial[chunk] = triangles;
      });
  int64_t triangles = 0;
  for (int64_t p : partial) triangles += p;
  return triangles;
}

double RefCharacteristicPathLength(const graph::Graph& g, util::Rng& rng,
                                   int num_sources) {
  std::vector<int> comp = graph::LargestComponent(g);
  if (comp.size() < 2) return 0.0;
  graph::Graph sub = g.InducedSubgraph(comp);
  int n = sub.num_nodes();
  std::vector<int> sources;
  if (n <= num_sources) {
    sources.resize(n);
    for (int i = 0; i < n; ++i) sources[i] = i;
  } else {
    sources = rng.SampleWithoutReplacement(n, num_sources);
  }
  const int num_src = static_cast<int>(sources.size());
  std::vector<int64_t> src_total(num_src, 0);
  std::vector<int64_t> src_pairs(num_src, 0);
  util::ParallelFor(0, num_src, 1, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      int s = sources[i];
      std::vector<int> dist = graph::BfsDistances(sub, s);
      int64_t total = 0;
      int64_t pairs = 0;
      for (int v = 0; v < n; ++v) {
        if (v == s) continue;
        if (dist[v] > 0) {
          total += dist[v];
          ++pairs;
        }
      }
      src_total[i] = total;
      src_pairs[i] = pairs;
    }
  });
  double total = 0.0;
  int64_t pairs = 0;
  for (int i = 0; i < num_src; ++i) {
    total += static_cast<double>(src_total[i]);
    pairs += src_pairs[i];
  }
  return pairs > 0 ? total / static_cast<double>(pairs) : 0.0;
}

}  // namespace cpgan::testing
