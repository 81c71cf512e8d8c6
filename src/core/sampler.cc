#include "core/sampler.h"

#include <algorithm>
#include <map>

#include "util/check.h"

namespace cpgan::core {

std::vector<double> DegreeSampleWeights(const graph::Graph& g) {
  int n = g.num_nodes();
  std::vector<double> weights(n);
  int min_positive = 0;
  for (int v = 0; v < n; ++v) {
    int d = g.degree(v);
    weights[v] = static_cast<double>(d);
    if (d > 0 && (min_positive == 0 || d < min_positive)) min_positive = d;
  }
  if (min_positive == 0) {
    // No edges at all: uniform.
    std::fill(weights.begin(), weights.end(), 1.0);
    return weights;
  }
  const double floor = kIsolatedFloorFraction * min_positive;
  for (double& w : weights) {
    if (w <= 0.0) w = floor;
  }
  return weights;
}

std::vector<int> DegreeProportionalSample(const graph::Graph& g, int count,
                                          util::Rng& rng) {
  int n = g.num_nodes();
  count = std::min(count, n);
  std::vector<int> nodes =
      rng.WeightedSampleWithoutReplacement(DegreeSampleWeights(g), count);
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

std::vector<int> UniformNodeSample(int n, int count, util::Rng& rng) {
  count = std::min(count, n);
  std::vector<int> nodes = rng.SampleWithoutReplacement(n, count);
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

CoresetSample SensitivityCoresetSample(const graph::Graph& g, int count,
                                       util::Rng& rng) {
  CoresetSample result;
  const int n = g.num_nodes();
  if (n == 0 || count <= 0) return result;
  count = std::min(count, n);
  const double total_degree = 2.0 * static_cast<double>(g.num_edges());

  if (total_degree <= 0.0) {
    result.nodes = rng.SampleWithoutReplacement(n, count);
    std::sort(result.nodes.begin(), result.nodes.end());
    // Uniform without-replacement inclusion probability is count/n, so the
    // Horvitz-Thompson weight n/count keeps coreset sums unbiased.
    result.weights.assign(result.nodes.size(),
                          static_cast<double>(n) / count);
    return result;
  }

  // Mixture sensitivities: half cost-proportional, half uniform. They sum
  // to 1 by construction, so s_i is directly the draw probability p_i.
  std::vector<double> p(n);
  for (int v = 0; v < n; ++v) {
    p[v] = 0.5 * static_cast<double>(g.degree(v)) / total_degree +
           0.5 / static_cast<double>(n);
  }

  // `count` draws with replacement, compacted by summing the weights of
  // repeated indices (an ordered map so the output is sorted as a side
  // effect). O(log n) per draw via the cumulative table.
  util::CumulativeSampler sampler(p);
  std::map<int, double> picked;
  for (int draw = 0; draw < count; ++draw) {
    int v = sampler.Sample(rng);
    picked[v] += 1.0 / (static_cast<double>(count) * p[v]);
  }
  result.nodes.reserve(picked.size());
  result.weights.reserve(picked.size());
  for (const auto& [v, w] : picked) {
    result.nodes.push_back(v);
    result.weights.push_back(w);
  }
  return result;
}

}  // namespace cpgan::core
