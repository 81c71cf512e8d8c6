// Google-benchmark microbenchmarks of the evaluation/community hot paths
// rebuilt in the eval-stack PR: the cached Gram-matrix MMD against its
// per-pair reference, flat-CSR Louvain against the map-of-maps reference,
// and the spectral power iteration. bench/BENCH_eval.json holds a reference
// run (see its "context" block for the machine).
//
// The BM_Mmd*/BM_RefMmd pairs carry the headline claim: the old path
// re-normalized both histograms and recomputed the kernel for every (i, j)
// and every estimator term, so its cost scales with the number of estimator
// terms times pair count; the new path pays one normalization per sample
// and one kernel per unordered pair. The *Threads sweep sets the pool size
// (second Args value); results are bitwise identical at every sweep point,
// only the wall clock moves (and only on multi-core machines — the
// committed baseline is a 1-CPU box, where the serial caching/symmetry win
// is the whole speedup).

#include <benchmark/benchmark.h>

#include <vector>

#include "community/louvain.h"
#include "data/synthetic.h"
#include "eval/mmd.h"
#include "generators/ba.h"
#include "graph/algorithms.h"
#include "testing/eval_ref.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace cpgan;

// Synthetic degree-histogram-like sample sets: `count` histograms of
// `width` bins with deterministic pseudo-random counts. Widths are jittered
// per sample so every pair exercises the common-support padding.
std::vector<std::vector<double>> MakeHistSet(int count, int width,
                                             uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> set;
  set.reserve(count);
  for (int i = 0; i < count; ++i) {
    const int w = width - static_cast<int>(rng.UniformInt(width / 4 + 1));
    std::vector<double> h(w);
    for (double& v : h) {
      v = static_cast<double>(rng.UniformInt(100));
    }
    set.push_back(std::move(h));
  }
  return set;
}

void BM_Mmd(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  const int width = static_cast<int>(state.range(1));
  const auto a = MakeHistSet(count, width, 11);
  const auto b = MakeHistSet(count, width, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::Mmd(a, b, eval::MmdKernel::kGaussianEmd,
                                       1.0, eval::MmdEstimator::kUnbiased));
  }
  state.SetComplexityN(count);
}
BENCHMARK(BM_Mmd)
    ->Args({8, 64})
    ->Args({32, 64})
    ->Args({128, 64})
    ->Args({32, 16})
    ->Args({32, 256})
    ->Args({128, 256});

// Historical per-pair implementation (testing/eval_ref.cc), same inputs:
// the BM_Mmd / BM_RefMmd ratio is the single-thread speedup of the rewrite.
void BM_RefMmd(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  const int width = static_cast<int>(state.range(1));
  const auto a = MakeHistSet(count, width, 11);
  const auto b = MakeHistSet(count, width, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(testing::RefMmd(a, b,
                                             eval::MmdKernel::kGaussianEmd,
                                             1.0,
                                             eval::MmdEstimator::kUnbiased));
  }
  state.SetComplexityN(count);
}
BENCHMARK(BM_RefMmd)
    ->Args({8, 64})
    ->Args({32, 64})
    ->Args({128, 64})
    ->Args({32, 16})
    ->Args({32, 256})
    ->Args({128, 256});

// Thread sweep over the Gram-row parallelization (range: count, width,
// threads).
void BM_MmdThreads(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  const int width = static_cast<int>(state.range(1));
  util::ThreadPool::SetGlobalThreads(static_cast<int>(state.range(2)));
  const auto a = MakeHistSet(count, width, 11);
  const auto b = MakeHistSet(count, width, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::Mmd(a, b, eval::MmdKernel::kGaussianEmd,
                                       1.0, eval::MmdEstimator::kUnbiased));
  }
  util::ThreadPool::SetGlobalThreads(1);
}
BENCHMARK(BM_MmdThreads)
    ->Args({128, 64, 1})
    ->Args({128, 64, 2})
    ->Args({128, 64, 8})
    ->Args({128, 256, 1})
    ->Args({128, 256, 2})
    ->Args({128, 256, 8});

graph::Graph MakeSbm(int nodes, uint64_t seed) {
  data::CommunityGraphParams params;
  params.num_nodes = nodes;
  params.num_edges = nodes * 4;
  params.num_communities = nodes / 64 + 2;
  params.intra_fraction = 0.9;
  util::Rng rng(seed);
  return data::MakeCommunityGraph(params, rng);
}

void BM_LouvainSbm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::ThreadPool::SetGlobalThreads(static_cast<int>(state.range(1)));
  graph::Graph g = MakeSbm(n, 7);
  for (auto _ : state) {
    util::Rng rng(4);
    benchmark::DoNotOptimize(community::Louvain(g, rng));
  }
  util::ThreadPool::SetGlobalThreads(1);
  state.SetComplexityN(n);
}
BENCHMARK(BM_LouvainSbm)
    ->Args({1024, 1})
    ->Args({1024, 2})
    ->Args({1024, 8})
    ->Args({8192, 1})
    ->Args({8192, 2})
    ->Args({8192, 8});

void BM_LouvainBa(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng gen_rng(5);
  graph::Graph g = generators::BaGenerator(n, 4).Generate(gen_rng);
  for (auto _ : state) {
    util::Rng rng(4);
    benchmark::DoNotOptimize(community::Louvain(g, rng));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_LouvainBa)->Arg(1024)->Arg(4096)->Complexity();

void BM_RefLouvainSbm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  graph::Graph g = MakeSbm(n, 7);
  for (auto _ : state) {
    util::Rng rng(4);
    benchmark::DoNotOptimize(testing::RefLouvain(g, rng));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_RefLouvainSbm)->Arg(1024)->Arg(8192);

// Graph metrics that score every generated graph (Table IV's clustering
// MMD and CPL), against their per-pair HasEdge / one-BFS-per-source
// references. Inputs: perfbench's `generate` fixture (3000 nodes, 12000
// edges, 24 communities, seed 20220501) and a 100k-node, 500k-edge
// community graph (range: nodes, threads). Built once per node count.
const graph::Graph& MetricGraph(int nodes) {
  static const graph::Graph fixture = [] {
    data::CommunityGraphParams params;
    params.num_nodes = 3000;
    params.num_edges = 12000;
    params.num_communities = 24;
    util::Rng rng(20220501);
    return data::MakeCommunityGraph(params, rng);
  }();
  static const graph::Graph large = [] {
    data::CommunityGraphParams params;
    params.num_nodes = 100000;
    params.num_edges = 500000;
    params.num_communities = 800;
    util::Rng rng(20220501);
    return data::MakeCommunityGraph(params, rng);
  }();
  return nodes == 3000 ? fixture : large;
}

template <typename Fn>
void RunMetric(benchmark::State& state, Fn fn) {
  const graph::Graph& g = MetricGraph(static_cast<int>(state.range(0)));
  util::ThreadPool::SetGlobalThreads(static_cast<int>(state.range(1)));
  for (auto _ : state) benchmark::DoNotOptimize(fn(g));
  util::ThreadPool::SetGlobalThreads(1);
}

void BM_LocalClustering(benchmark::State& state) {
  RunMetric(state, [](const graph::Graph& g) {
    return graph::LocalClusteringCoefficients(g);
  });
}

void BM_RefLocalClustering(benchmark::State& state) {
  RunMetric(state, [](const graph::Graph& g) {
    return testing::RefLocalClusteringCoefficients(g);
  });
}

void BM_Cpl(benchmark::State& state) {
  RunMetric(state, [](const graph::Graph& g) {
    util::Rng rng(3);
    return graph::CharacteristicPathLength(g, rng);
  });
}

void BM_RefCpl(benchmark::State& state) {
  RunMetric(state, [](const graph::Graph& g) {
    util::Rng rng(3);
    return testing::RefCharacteristicPathLength(g, rng);
  });
}

void MetricArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"nodes", "threads"})->Unit(benchmark::kMillisecond);
  for (int nodes : {3000, 100000}) {
    for (int threads : {1, 4}) b->Args({nodes, threads});
  }
}
BENCHMARK(BM_LocalClustering)->Apply(MetricArgs);
BENCHMARK(BM_RefLocalClustering)->Apply(MetricArgs);
BENCHMARK(BM_Cpl)->Apply(MetricArgs);
BENCHMARK(BM_RefCpl)->Apply(MetricArgs);

}  // namespace

BENCHMARK_MAIN();
