// Google-benchmark microbenchmarks of the kernels behind the paper's
// complexity claims: O(m + n) graph convolution / pooling (Section III-C),
// O(m + n) Louvain, and the subgraph decode that dominates CPGAN training.
//
// The *Threads benchmarks sweep the thread-pool size for the parallel
// kernels (second Args value = threads). Results are bitwise identical for
// any sweep point — only the wall clock moves. bench/BENCH_kernels.json
// holds a reference run (see its "context" block for the machine; speedups
// only show up with > 1 physical core).
//
// The *Backend benchmarks (registered in main() for every backend compiled
// into this binary and usable on this machine) run the SAME shapes under
// each kernel backend, so the scalar-vs-avx2 column pairs in
// BENCH_kernels.json are directly comparable. These are single-core
// vectorization wins — they show up even on the 1-CPU reference machine.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "community/louvain.h"
#include "data/datasets.h"
#include "graph/algorithms.h"
#include "graph/spectral.h"
#include "nn/gcn.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace cpgan;

graph::Graph MakeGraph(int n) {
  return data::MakeScaledDataset("google_like", n, 13);
}

void BM_SpMM(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  graph::Graph g = MakeGraph(n);
  tensor::SparseMatrix a = tensor::NormalizedAdjacency(n, g.Edges());
  util::Rng rng(1);
  tensor::Matrix x(n, 32);
  x.FillNormal(rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Multiply(x));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SpMM)->Arg(256)->Arg(1024)->Arg(4096)->Complexity();

void BM_DenseMatmul(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  util::Rng rng(2);
  tensor::Matrix a(n, 32);
  tensor::Matrix b(32, n);
  a.FillNormal(rng, 1.0f);
  b.FillNormal(rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::Matmul(a, b));
  }
}
BENCHMARK(BM_DenseMatmul)->Arg(128)->Arg(256)->Arg(512);

// ---------------------------------------------------------------------------
// Thread-count sweeps (range(0) = problem size, range(1) = pool threads).
// ---------------------------------------------------------------------------

void BM_SpMMThreads(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  util::ThreadPool::SetGlobalThreads(static_cast<int>(state.range(1)));
  graph::Graph g = MakeGraph(n);
  tensor::SparseMatrix a = tensor::NormalizedAdjacency(n, g.Edges());
  util::Rng rng(1);
  tensor::Matrix x(n, 32);
  x.FillNormal(rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Multiply(x));
  }
  util::ThreadPool::SetGlobalThreads(1);
}
BENCHMARK(BM_SpMMThreads)
    ->Args({4096, 1})
    ->Args({4096, 2})
    ->Args({4096, 4})
    ->Args({12800, 1})
    ->Args({12800, 2})
    ->Args({12800, 4})
    ->Args({12800, 8});

void BM_DenseMatmulThreads(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  util::ThreadPool::SetGlobalThreads(static_cast<int>(state.range(1)));
  util::Rng rng(2);
  tensor::Matrix a(n, n);
  tensor::Matrix b(n, n);
  a.FillNormal(rng, 1.0f);
  b.FillNormal(rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::Matmul(a, b));
  }
  util::ThreadPool::SetGlobalThreads(1);
}
BENCHMARK(BM_DenseMatmulThreads)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->Args({512, 8});

void BM_LocalClusteringThreads(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  util::ThreadPool::SetGlobalThreads(static_cast<int>(state.range(1)));
  graph::Graph g = MakeGraph(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::LocalClusteringCoefficients(g));
  }
  util::ThreadPool::SetGlobalThreads(1);
}
BENCHMARK(BM_LocalClusteringThreads)
    ->Args({4096, 1})
    ->Args({4096, 2})
    ->Args({4096, 4})
    ->Args({12800, 1})
    ->Args({12800, 2})
    ->Args({12800, 4})
    ->Args({12800, 8});

void BM_GcnForwardBackward(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  graph::Graph g = MakeGraph(n);
  auto a = std::make_shared<tensor::SparseMatrix>(
      tensor::NormalizedAdjacency(n, g.Edges()));
  util::Rng rng(3);
  nn::GcnConv conv(16, 32, rng);
  tensor::Matrix x(n, 16);
  x.FillNormal(rng, 1.0f);
  for (auto _ : state) {
    tensor::Tensor input(x, /*requires_grad=*/true);
    tensor::Tensor loss = tensor::MeanAll(
        tensor::Square(conv.Forward(a, input)));
    tensor::Backward(loss);
    benchmark::DoNotOptimize(loss.Scalar());
  }
}
BENCHMARK(BM_GcnForwardBackward)->Arg(256)->Arg(1024);

void BM_Louvain(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  graph::Graph g = MakeGraph(n);
  for (auto _ : state) {
    util::Rng rng(4);
    benchmark::DoNotOptimize(community::Louvain(g, rng));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Louvain)->Arg(256)->Arg(1024)->Arg(4096)->Complexity();

void BM_SpectralEmbedding(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  graph::Graph g = MakeGraph(n);
  for (auto _ : state) {
    util::Rng rng(5);
    benchmark::DoNotOptimize(graph::SpectralEmbedding(g, 16, rng, 10));
  }
}
BENCHMARK(BM_SpectralEmbedding)->Arg(256)->Arg(1024);

// ---------------------------------------------------------------------------
// Backend sweeps: the same shape under every compiled kernel backend
// (benchmark name carries the backend; registered in main()).
// ---------------------------------------------------------------------------

void BM_DenseMatmulBackend(benchmark::State& state,
                           const std::string& backend) {
  tensor::kernels::SetBackend(backend);
  int n = static_cast<int>(state.range(0));
  util::Rng rng(2);
  tensor::Matrix a(n, n);
  tensor::Matrix b(n, n);
  a.FillNormal(rng, 1.0f);
  b.FillNormal(rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::Matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}

/// dA = g·Bᵀ of Matmul's backward at the training model's shapes:
/// range = (n, k, m) for A n×k and B m×k.
void BM_MatmulNTBackend(benchmark::State& state, const std::string& backend) {
  tensor::kernels::SetBackend(backend);
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int m = static_cast<int>(state.range(2));
  util::Rng rng(8);
  tensor::Matrix a(n, k);
  tensor::Matrix b(m, k);
  a.FillNormal(rng, 1.0f);
  b.FillNormal(rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatmulNT(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * k * m);
}

/// Matrix::Transposed at the row strides MatmulTN and the edge scorer
/// transpose at: range = (rows, cols).
void BM_Transposed(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const int cols = static_cast<int>(state.range(1));
  util::Rng rng(9);
  tensor::Matrix x(rows, cols);
  x.FillNormal(rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(x.Transposed());
  }
  state.SetItemsProcessed(state.iterations() * int64_t{rows} * cols);
}
BENCHMARK(BM_Transposed)->Args({256, 256})->Args({1024, 64});

void BM_SpMMBackend(benchmark::State& state, const std::string& backend) {
  tensor::kernels::SetBackend(backend);
  int n = static_cast<int>(state.range(0));
  graph::Graph g = MakeGraph(n);
  tensor::SparseMatrix a = tensor::NormalizedAdjacency(n, g.Edges());
  util::Rng rng(1);
  tensor::Matrix x(n, 32);
  x.FillNormal(rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Multiply(x));
  }
  state.SetItemsProcessed(state.iterations() * a.nnz() * 32);
}

void BM_AxpyBackend(benchmark::State& state, const std::string& backend) {
  tensor::kernels::SetBackend(backend);
  int64_t n = state.range(0);
  util::Rng rng(6);
  tensor::Matrix x(1, static_cast<int>(n));
  tensor::Matrix y(1, static_cast<int>(n));
  x.FillNormal(rng, 1.0f);
  y.FillNormal(rng, 1.0f);
  for (auto _ : state) {
    y.Axpy(0.5f, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_SumBackend(benchmark::State& state, const std::string& backend) {
  tensor::kernels::SetBackend(backend);
  int64_t n = state.range(0);
  util::Rng rng(7);
  tensor::Matrix x(1, static_cast<int>(n));
  x.FillNormal(rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(x.Sum());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void RegisterBackendSweeps() {
  for (const tensor::kernels::KernelOps* ops :
       tensor::kernels::AvailableBackends()) {
    const std::string name = ops->name;
    benchmark::RegisterBenchmark(
        ("BM_DenseMatmulBackend/" + name).c_str(), BM_DenseMatmulBackend, name)
        ->Arg(256)
        ->Arg(512)
        ->Arg(1024);
    benchmark::RegisterBenchmark(("BM_MatmulNTBackend/" + name).c_str(),
                                 BM_MatmulNTBackend, name)
        ->Args({256, 64, 256})
        ->Args({256, 32, 32});
    benchmark::RegisterBenchmark(("BM_SpMMBackend/" + name).c_str(),
                                 BM_SpMMBackend, name)
        ->Arg(4096)
        ->Arg(12800);
    benchmark::RegisterBenchmark(("BM_AxpyBackend/" + name).c_str(),
                                 BM_AxpyBackend, name)
        ->Arg(1 << 20);
    benchmark::RegisterBenchmark(("BM_SumBackend/" + name).c_str(),
                                 BM_SumBackend, name)
        ->Arg(1 << 20);
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterBackendSweeps();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
