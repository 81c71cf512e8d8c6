#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "nn/gcn.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/pairnorm.h"
#include "tests/test_util.h"

namespace cpgan::nn {
namespace {

namespace t = cpgan::tensor;
using cpgan::testing::ExpectGradCheck;
using cpgan::testing::TestMatrix;

TEST(LinearTest, ShapesAndBias) {
  util::Rng rng(1);
  Linear layer(4, 3, rng);
  t::Tensor x = t::Constant(TestMatrix(5, 4, 1.0f, 1));
  t::Tensor y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 3);
  EXPECT_EQ(layer.ParameterCount(), 4 * 3 + 3);
}

TEST(LinearTest, NoBiasVariant) {
  util::Rng rng(2);
  Linear layer(4, 3, rng, /*bias=*/false);
  EXPECT_EQ(layer.ParameterCount(), 4 * 3);
}

TEST(LinearTest, GradCheckThroughLayer) {
  util::Rng rng(3);
  Linear layer(3, 2, rng);
  t::Tensor x = t::Constant(TestMatrix(4, 3, 1.0f, 2));
  for (t::Tensor& p : layer.Parameters()) {
    ExpectGradCheck(p, [&] { return t::SumAll(t::Square(layer.Forward(x))); });
  }
}

TEST(MlpTest, ForwardShapeAndActivation) {
  util::Rng rng(4);
  Mlp mlp({6, 8, 2}, rng, Activation::kRelu, Activation::kSigmoid);
  t::Tensor x = t::Constant(TestMatrix(3, 6, 1.0f, 3));
  t::Tensor y = mlp.Forward(x);
  EXPECT_EQ(y.rows(), 3);
  EXPECT_EQ(y.cols(), 2);
  for (int64_t i = 0; i < y.value().size(); ++i) {
    EXPECT_GT(y.value().data()[i], 0.0f);
    EXPECT_LT(y.value().data()[i], 1.0f);
  }
  EXPECT_EQ(mlp.in_features(), 6);
  EXPECT_EQ(mlp.out_features(), 2);
}

TEST(MlpTest, ParameterRegistryIncludesAllLayers) {
  util::Rng rng(5);
  Mlp mlp({4, 8, 8, 1}, rng);
  EXPECT_EQ(mlp.ParameterCount(), 4 * 8 + 8 + 8 * 8 + 8 + 8 * 1 + 1);
}

TEST(GcnTest, SparseAndDenseAgree) {
  util::Rng rng(6);
  GcnConv conv(5, 7, rng);
  auto sparse = std::make_shared<t::SparseMatrix>(
      t::NormalizedAdjacency(4, {{0, 1}, {1, 2}, {2, 3}}));
  t::Tensor x = t::Constant(TestMatrix(4, 5, 1.0f, 4));
  t::Tensor dense_a = t::Constant(sparse->ToDense());
  t::Tensor from_sparse = conv.Forward(sparse, x);
  t::Tensor from_dense = conv.ForwardDense(dense_a, x);
  t::Matrix diff = from_sparse.value();
  diff.Axpy(-1.0f, from_dense.value());
  EXPECT_LT(diff.Norm(), 1e-4f);
}

TEST(GcnTest, GradCheckThroughSparseConv) {
  util::Rng rng(7);
  GcnConv conv(3, 2, rng);
  auto sparse = std::make_shared<t::SparseMatrix>(
      t::NormalizedAdjacency(3, {{0, 1}, {1, 2}}));
  t::Tensor x = t::Constant(TestMatrix(3, 3, 1.0f, 5));
  for (t::Tensor& p : conv.Parameters()) {
    ExpectGradCheck(p, [&] {
      return t::SumAll(t::Square(conv.Forward(sparse, x)));
    });
  }
}

TEST(GcnTest, RowNormalizeAdjacencyRowsSumToOne) {
  t::Matrix a(3, 3);
  a.At(0, 1) = 2.0f;
  a.At(1, 0) = 2.0f;
  a.At(1, 2) = 1.0f;
  a.At(2, 1) = 1.0f;
  t::Tensor norm = RowNormalizeAdjacency(t::Constant(a));
  for (int r = 0; r < 3; ++r) {
    double sum = 0.0;
    for (int c = 0; c < 3; ++c) sum += norm.value().At(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-4);
  }
}

TEST(PairNormTest, RowNormsEqualScale) {
  t::Tensor x = t::Constant(TestMatrix(6, 5, 2.0f, 6));
  t::Tensor y = PairNorm(x, 2.5f);
  for (int r = 0; r < y.rows(); ++r) {
    double norm = 0.0;
    for (int c = 0; c < y.cols(); ++c) {
      norm += static_cast<double>(y.value().At(r, c)) * y.value().At(r, c);
    }
    EXPECT_NEAR(std::sqrt(norm), 2.5, 1e-2);
  }
}

TEST(PairNormTest, CentersColumns) {
  t::Tensor x = t::Constant(TestMatrix(50, 4, 1.0f, 7));
  t::Tensor y = PairNorm(x);
  // After centering (pre-normalization) column means are 0; normalization
  // perturbs them, but they must be much smaller than the feature scale.
  for (int c = 0; c < 4; ++c) {
    double mean = 0.0;
    for (int r = 0; r < 50; ++r) mean += y.value().At(r, c);
    EXPECT_LT(std::fabs(mean / 50.0), 0.2);
  }
}

TEST(PairNormTest, GradCheck) {
  t::Tensor x(TestMatrix(4, 3, 1.0f, 8), true);
  ExpectGradCheck(x, [&] { return t::SumAll(t::Square(PairNorm(x))); });
}

TEST(GruTest, ShapesAndStateUpdate) {
  util::Rng rng(8);
  GruCell gru(4, 6, rng);
  t::Tensor x = t::Constant(TestMatrix(3, 4, 1.0f, 9));
  t::Tensor h = gru.InitialState(3);
  EXPECT_EQ(h.rows(), 3);
  EXPECT_EQ(h.cols(), 6);
  t::Tensor h1 = gru.Forward(x, h);
  EXPECT_EQ(h1.rows(), 3);
  EXPECT_EQ(h1.cols(), 6);
  // Output is bounded by tanh/sigmoid composition.
  for (int64_t i = 0; i < h1.value().size(); ++i) {
    EXPECT_LT(std::fabs(h1.value().data()[i]), 1.0f);
  }
}

TEST(GruTest, ZeroInputKeepsStateBounded) {
  util::Rng rng(9);
  GruCell gru(2, 3, rng);
  t::Tensor x = t::Constant(t::Matrix(1, 2));
  t::Tensor h = gru.InitialState(1);
  for (int step = 0; step < 50; ++step) h = gru.Forward(x, h);
  EXPECT_LT(h.value().Norm(), 10.0f);
  EXPECT_TRUE(std::isfinite(h.value().Norm()));
}

TEST(GruTest, GradCheckThroughTwoSteps) {
  util::Rng rng(10);
  GruCell gru(3, 4, rng);
  t::Tensor x1 = t::Constant(TestMatrix(2, 3, 1.0f, 10));
  t::Tensor x2 = t::Constant(TestMatrix(2, 3, 1.0f, 11));
  for (t::Tensor& p : gru.Parameters()) {
    ExpectGradCheck(p, [&] {
      t::Tensor h = gru.Forward(x2, gru.Forward(x1, gru.InitialState(2)));
      return t::SumAll(t::Square(h));
    });
  }
}

}  // namespace
}  // namespace cpgan::nn
