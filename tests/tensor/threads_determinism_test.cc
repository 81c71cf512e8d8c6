// Bitwise determinism of the parallel kernel layer across thread counts.
//
// The thread-pool contract (src/util/thread_pool.h) is that chunk boundaries
// are a pure function of the range and the grain, and that every kernel
// either writes disjoint state per chunk or reduces per-chunk partials in
// chunk order. These tests pin that contract end to end: each kernel — and a
// whole CPGAN training run — must produce byte-identical results with 1, 2,
// and 8 threads. Sizes are chosen above the serial-path thresholds so the
// blocked/parallel code paths actually execute.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cpgan.h"
#include "data/datasets.h"
#include "graph/algorithms.h"
#include "graph/graph.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cpgan::tensor {
namespace {

using cpgan::testing::TestMatrix;

const std::vector<int> kThreadCounts = {1, 2, 8};

bool SameBytes(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Runs `fn` once per thread count and checks every result against the
/// single-thread baseline, byte for byte.
void ExpectSameMatrixForAllThreadCounts(
    const std::function<Matrix()>& fn, const std::string& what) {
  util::ThreadPool::SetGlobalThreads(1);
  Matrix baseline = fn();
  for (int threads : kThreadCounts) {
    util::ThreadPool::SetGlobalThreads(threads);
    Matrix got = fn();
    EXPECT_TRUE(SameBytes(baseline, got))
        << what << " differs at " << threads << " threads";
  }
  util::ThreadPool::SetGlobalThreads(1);
}

// 300x70 * 70x90 = 1.9M flops: far above the serial-matmul threshold, not a
// multiple of the 64-wide tiles, so the blocked + packed path runs with
// partial edge tiles.
TEST(ThreadsDeterminismTest, DenseMatmulBitwiseIdentical) {
  Matrix a = TestMatrix(300, 70, 1.0f, 1);
  Matrix b = TestMatrix(70, 90, 1.0f, 2);
  ExpectSameMatrixForAllThreadCounts([&] { return Matmul(a, b); }, "Matmul");
}

TEST(ThreadsDeterminismTest, MatmulTNBitwiseIdentical) {
  Matrix a = TestMatrix(70, 300, 1.0f, 3);  // a^T is 300x70
  Matrix b = TestMatrix(70, 90, 1.0f, 4);
  ExpectSameMatrixForAllThreadCounts([&] { return MatmulTN(a, b); },
                                     "MatmulTN");
}

TEST(ThreadsDeterminismTest, MatmulNTBitwiseIdentical) {
  Matrix a = TestMatrix(300, 70, 1.0f, 5);
  Matrix b = TestMatrix(90, 70, 1.0f, 6);  // b^T is 70x90
  ExpectSameMatrixForAllThreadCounts([&] { return MatmulNT(a, b); },
                                     "MatmulNT");
}

TEST(ThreadsDeterminismTest, TransposedBitwiseIdentical) {
  Matrix a = TestMatrix(301, 203, 1.0f, 7);
  ExpectSameMatrixForAllThreadCounts([&] { return a.Transposed(); },
                                     "Transposed");
}

TEST(ThreadsDeterminismTest, SpmmBitwiseIdentical) {
  graph::Graph g = data::MakeScaledDataset("google_like", 500, 13);
  SparseMatrix adj = NormalizedAdjacency(g.num_nodes(), g.Edges());
  Matrix x = TestMatrix(g.num_nodes(), 48, 1.0f, 8);
  ExpectSameMatrixForAllThreadCounts([&] { return adj.Multiply(x); },
                                     "SparseMatrix::Multiply");
  ExpectSameMatrixForAllThreadCounts(
      [&] { return adj.MultiplyTransposed(x); },
      "SparseMatrix::MultiplyTransposed");
}

// Forward + backward through the parallelized elementwise / broadcast /
// reduction ops; gradients must match bitwise too (the backward passes use
// the same chunk-ordered reductions).
TEST(ThreadsDeterminismTest, OpsForwardBackwardBitwiseIdentical) {
  Matrix xm = TestMatrix(600, 80, 1.0f, 9);
  Matrix vm = TestMatrix(1, 80, 1.0f, 10);
  Matrix targets = TestMatrix(600, 80, 0.5f, 11);
  for (int64_t i = 0; i < targets.size(); ++i) {
    targets.data()[i] = targets.data()[i] > 0.0f ? 1.0f : 0.0f;
  }

  auto run = [&](std::vector<Matrix>* grads) {
    Tensor x(xm, /*requires_grad=*/true);
    Tensor v(vm, /*requires_grad=*/true);
    Tensor h = MulRowVec(AddRowVec(x, v), v);
    Tensor s = SoftmaxRows(h);
    Tensor loss = Add(BceWithLogits(h, targets, 2.0f),
                      Add(SumAll(ColMean(s)), SumAll(RowL2Norm(h))));
    Backward(loss);
    grads->push_back(x.grad());
    grads->push_back(v.grad());
    Matrix lv(1, 1);
    lv.At(0, 0) = loss.value().At(0, 0);
    grads->push_back(lv);
  };

  util::ThreadPool::SetGlobalThreads(1);
  std::vector<Matrix> baseline;
  run(&baseline);
  for (int threads : kThreadCounts) {
    util::ThreadPool::SetGlobalThreads(threads);
    std::vector<Matrix> got;
    run(&got);
    ASSERT_EQ(baseline.size(), got.size());
    for (size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_TRUE(SameBytes(baseline[i], got[i]))
          << "grad/loss " << i << " differs at " << threads << " threads";
    }
  }
  util::ThreadPool::SetGlobalThreads(1);
}

TEST(ThreadsDeterminismTest, GraphMetricsIdenticalAcrossThreadCounts) {
  graph::Graph g = data::MakeScaledDataset("facebook_like", 700, 17);

  util::ThreadPool::SetGlobalThreads(1);
  std::vector<double> base_coeffs = graph::LocalClusteringCoefficients(g);
  int64_t base_triangles = graph::CountTriangles(g);
  util::Rng base_rng(23);
  double base_cpl = graph::CharacteristicPathLength(g, base_rng, 64);

  for (int threads : kThreadCounts) {
    util::ThreadPool::SetGlobalThreads(threads);
    std::vector<double> coeffs = graph::LocalClusteringCoefficients(g);
    ASSERT_EQ(base_coeffs.size(), coeffs.size());
    EXPECT_EQ(0, std::memcmp(base_coeffs.data(), coeffs.data(),
                             coeffs.size() * sizeof(double)))
        << "clustering differs at " << threads << " threads";
    EXPECT_EQ(base_triangles, graph::CountTriangles(g));
    util::Rng rng(23);  // same seed => same sampled sources
    EXPECT_EQ(base_cpl, graph::CharacteristicPathLength(g, rng, 64))
        << "CPL differs at " << threads << " threads";
  }
  util::ThreadPool::SetGlobalThreads(1);
}

// End-to-end: a short CPGAN training run (forward + backward + optimizer,
// exercising matmul, SpMM, softmax, reductions, graph sampling) must yield
// bitwise-identical losses and SaveWeights checkpoints for every thread
// count.
TEST(ThreadsDeterminismTest, CpganTrainingStepBitwiseIdentical) {
  graph::Graph observed = data::MakeScaledDataset("google_like", 256, 5);

  core::CpganConfig config;
  config.epochs = 3;
  config.subgraph_size = 64;
  config.feature_dim = 16;
  config.hidden_dim = 32;
  config.latent_dim = 16;
  config.seed = 11;

  auto run = [&](int threads, std::vector<float>* losses,
                 std::string* weight_bytes) {
    util::ThreadPool::SetGlobalThreads(threads);
    core::Cpgan model(config);
    core::TrainStats stats = model.Fit(observed);
    losses->insert(losses->end(), stats.d_loss.begin(), stats.d_loss.end());
    losses->insert(losses->end(), stats.g_loss.begin(), stats.g_loss.end());
    std::string path = ::testing::TempDir() + "/cpgan_threads_" +
                       std::to_string(threads) + ".cpck";
    ASSERT_TRUE(model.SaveWeights(path));
    FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      weight_bytes->append(buf, got);
    }
    std::fclose(f);
    std::remove(path.c_str());
  };

  std::vector<float> base_losses;
  std::string base_weights;
  run(1, &base_losses, &base_weights);
  ASSERT_FALSE(base_losses.empty());
  ASSERT_FALSE(base_weights.empty());

  for (int threads : kThreadCounts) {
    std::vector<float> losses;
    std::string weights;
    run(threads, &losses, &weights);
    ASSERT_EQ(base_losses.size(), losses.size());
    EXPECT_EQ(0, std::memcmp(base_losses.data(), losses.data(),
                             losses.size() * sizeof(float)))
        << "losses differ at " << threads << " threads";
    EXPECT_EQ(base_weights, weights)
        << "weight file differs at " << threads << " threads";
  }
  util::ThreadPool::SetGlobalThreads(1);
}

}  // namespace
}  // namespace cpgan::tensor
