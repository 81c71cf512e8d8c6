#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tests/test_util.h"

namespace cpgan::tensor {
namespace {

using cpgan::testing::ExpectGradCheck;
using cpgan::testing::TestMatrix;

Tensor Param(int rows, int cols, float scale = 1.0f, uint64_t seed = 7) {
  return Tensor(TestMatrix(rows, cols, scale, seed), /*requires_grad=*/true);
}

TEST(AutogradTest, BackwardOnLeafScalar) {
  Tensor x = Param(1, 1);
  Tensor loss = Scale(x, 3.0f);
  Backward(loss);
  EXPECT_FLOAT_EQ(x.grad().At(0, 0), 3.0f);
}

TEST(AutogradTest, GradAccumulatesAcrossUses) {
  Tensor x = Param(2, 2);
  // loss = sum(x) + sum(x) -> grad of 2 everywhere.
  Tensor loss = Add(SumAll(x), SumAll(x));
  Backward(loss);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) EXPECT_FLOAT_EQ(x.grad().At(r, c), 2.0f);
  }
}

TEST(AutogradTest, DetachBlocksGradient) {
  Tensor x = Param(2, 2);
  Tensor loss = SumAll(Mul(x.Detach(), x.Detach()));
  Backward(loss);
  EXPECT_FLOAT_EQ(x.grad().Norm(), 0.0f);
}

TEST(AutogradTest, ZeroGradResets) {
  Tensor x = Param(2, 3);
  Backward(SumAll(x));
  EXPECT_GT(x.grad().Norm(), 0.0f);
  x.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad().Norm(), 0.0f);
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

TEST(AutogradTest, AddScalarMatchesOnesVectorBroadcast) {
  // AddScalar replaced the decoder's ones_col * s * ones_row broadcast; its
  // value and both gradients must keep that path's bits on every backend
  // (200 rows take the blocked matmul path, 3 and 40 the serial one).
  const std::string previous = kernels::Active().name;
  for (const kernels::KernelOps* backend : kernels::AvailableBackends()) {
    ASSERT_TRUE(kernels::SetBackend(backend->name));
    for (int n : {3, 40, 200}) {
      Tensor weights = Constant(TestMatrix(n, n, 1.0f, 31));
      Tensor x_new = Param(n, n, 2.0f, 32);
      Tensor s_new = Param(1, 1, 1.0f, 33);
      Tensor y_new = AddScalar(x_new, s_new);
      Backward(SumAll(Square(Mul(y_new, weights))));

      Tensor x_old = Param(n, n, 2.0f, 32);
      Tensor s_old = Param(1, 1, 1.0f, 33);
      Tensor ones_col = Constant(Matrix(n, 1, 1.0f));
      Tensor ones_row = Constant(Matrix(1, n, 1.0f));
      Tensor y_old =
          Add(x_old, Matmul(Matmul(ones_col, s_old), ones_row));
      Backward(SumAll(Square(Mul(y_old, weights))));

      EXPECT_TRUE(BitwiseEqual(y_new.value(), y_old.value()))
          << backend->name << " n=" << n;
      EXPECT_TRUE(BitwiseEqual(x_new.grad(), x_old.grad()))
          << backend->name << " n=" << n;
      EXPECT_TRUE(BitwiseEqual(s_new.grad(), s_old.grad()))
          << backend->name << " n=" << n;
    }
  }
  EXPECT_TRUE(kernels::SetBackend(previous));
}

// ---------------------------------------------------------------------------
// Finite-difference checks, one per differentiable op.
// ---------------------------------------------------------------------------

TEST(GradCheckTest, AddSubMul) {
  Tensor a = Param(3, 4, 1.0f, 1);
  Tensor b = Param(3, 4, 1.0f, 2);
  ExpectGradCheck(a, [&] { return SumAll(Mul(Add(a, b), Sub(a, b))); });
  ExpectGradCheck(b, [&] { return SumAll(Mul(Add(a, b), Sub(a, b))); });
}

TEST(GradCheckTest, RowVecBroadcasts) {
  Tensor x = Param(4, 3, 1.0f, 5);
  Tensor v = Param(1, 3, 1.0f, 6);
  ExpectGradCheck(x, [&] { return SumAll(Square(AddRowVec(x, v))); });
  ExpectGradCheck(v, [&] { return SumAll(Square(AddRowVec(x, v))); });
  ExpectGradCheck(x, [&] { return SumAll(Square(MulRowVec(x, v))); });
  ExpectGradCheck(v, [&] { return SumAll(Square(MulRowVec(x, v))); });
}

TEST(GradCheckTest, ColVecBroadcast) {
  Tensor x = Param(4, 3, 1.0f, 7);
  Tensor v = Param(4, 1, 1.0f, 8);
  ExpectGradCheck(x, [&] { return SumAll(Square(MulColVec(x, v))); });
  ExpectGradCheck(v, [&] { return SumAll(Square(MulColVec(x, v))); });
}

TEST(GradCheckTest, ScaleAddConstNeg) {
  Tensor x = Param(3, 3, 1.0f, 9);
  ExpectGradCheck(x, [&] { return SumAll(Square(AddConst(Scale(x, 1.7f), 0.3f))); });
  ExpectGradCheck(x, [&] { return SumAll(Square(Neg(x))); });
}

TEST(GradCheckTest, Activations) {
  Tensor x = Param(3, 4, 1.5f, 10);
  ExpectGradCheck(x, [&] { return SumAll(Sigmoid(x)); });
  ExpectGradCheck(x, [&] { return SumAll(Tanh(x)); });
  ExpectGradCheck(x, [&] { return SumAll(Softplus(x)); });
  ExpectGradCheck(x, [&] { return SumAll(Exp(Scale(x, 0.3f))); });
}

TEST(GradCheckTest, ReluAwayFromKink) {
  // Values in TestMatrix are bounded away from 0 rarely; nudge them.
  Tensor x = Param(3, 4, 1.0f, 11);
  for (int64_t i = 0; i < x.value().size(); ++i) {
    float& v = x.mutable_value().data()[i];
    if (std::fabs(v) < 0.1f) v = 0.5f;
  }
  ExpectGradCheck(x, [&] { return SumAll(Square(Relu(x))); });
}

TEST(GradCheckTest, LogSqrtSquareReciprocal) {
  Tensor x(TestMatrix(3, 3, 0.4f, 12), true);
  for (int64_t i = 0; i < x.value().size(); ++i) {
    x.mutable_value().data()[i] += 2.0f;  // strictly positive
  }
  ExpectGradCheck(x, [&] { return SumAll(Log(x)); });
  ExpectGradCheck(x, [&] { return SumAll(Sqrt(x)); });
  ExpectGradCheck(x, [&] { return SumAll(Square(x)); });
  ExpectGradCheck(x, [&] { return SumAll(Reciprocal(x)); });
}

TEST(GradCheckTest, SoftmaxRows) {
  Tensor x = Param(3, 5, 1.0f, 13);
  Tensor weights = Tensor(TestMatrix(3, 5, 1.0f, 14), false);
  ExpectGradCheck(x, [&] { return SumAll(Mul(SoftmaxRows(x), weights)); });
}

TEST(GradCheckTest, MatmulAndTranspose) {
  Tensor a = Param(3, 4, 1.0f, 15);
  Tensor b = Param(4, 2, 1.0f, 16);
  ExpectGradCheck(a, [&] { return SumAll(Square(Matmul(a, b))); });
  ExpectGradCheck(b, [&] { return SumAll(Square(Matmul(a, b))); });
  ExpectGradCheck(a, [&] { return SumAll(Square(Transpose(a))); });
}

TEST(GradCheckTest, Spmm) {
  auto sparse = std::make_shared<SparseMatrix>(
      3, 3,
      std::vector<Triplet>{{0, 0, 0.5f}, {0, 1, 0.5f}, {1, 1, 1.0f},
                           {2, 0, 0.3f}, {2, 2, 0.7f}});
  Tensor x = Param(3, 4, 1.0f, 17);
  ExpectGradCheck(x, [&] { return SumAll(Square(Spmm(sparse, x))); });
}

TEST(GradCheckTest, ConcatAndSlice) {
  Tensor a = Param(2, 3, 1.0f, 18);
  Tensor b = Param(2, 3, 1.0f, 19);
  ExpectGradCheck(a, [&] { return SumAll(Square(ConcatRows({a, b}))); });
  ExpectGradCheck(b, [&] { return SumAll(Square(ConcatCols({a, b}))); });
  ExpectGradCheck(a, [&] { return SumAll(Square(SliceCols(ConcatCols({a, b}), 1, 4))); });
}

TEST(GradCheckTest, GatherRows) {
  Tensor x = Param(4, 3, 1.0f, 20);
  ExpectGradCheck(x, [&] {
    return SumAll(Square(GatherRows(x, {0, 2, 2, 3})));
  });
}

TEST(GradCheckTest, Reshape) {
  Tensor x = Param(2, 6, 1.0f, 21);
  ExpectGradCheck(x, [&] { return SumAll(Square(Reshape(x, 3, 4))); });
}

TEST(GradCheckTest, Reductions) {
  Tensor x = Param(4, 3, 1.0f, 22);
  Tensor w_row = Tensor(TestMatrix(1, 3, 1.0f, 23), false);
  Tensor w_col = Tensor(TestMatrix(4, 1, 1.0f, 24), false);
  ExpectGradCheck(x, [&] { return MeanAll(Square(x)); });
  ExpectGradCheck(x, [&] { return SumAll(Mul(ColMean(Square(x)), w_row)); });
  ExpectGradCheck(x, [&] { return SumAll(Mul(RowSum(Square(x)), w_col)); });
}

TEST(GradCheckTest, RowL2Norm) {
  Tensor x(TestMatrix(3, 4, 1.0f, 25), true);
  for (int64_t i = 0; i < x.value().size(); ++i) {
    x.mutable_value().data()[i] += (x.value().data()[i] >= 0 ? 0.5f : -0.5f);
  }
  ExpectGradCheck(x, [&] { return SumAll(Square(RowL2Norm(x))); });
}

TEST(GradCheckTest, BceWithLogits) {
  Tensor logits = Param(3, 3, 1.5f, 26);
  Matrix targets(3, 3);
  targets.At(0, 1) = 1.0f;
  targets.At(1, 0) = 1.0f;
  targets.At(2, 2) = 1.0f;
  ExpectGradCheck(logits, [&] { return BceWithLogits(logits, targets, 2.0f); });
}

TEST(GradCheckTest, MseLoss) {
  Tensor a = Param(3, 3, 1.0f, 27);
  Tensor b = Param(3, 3, 1.0f, 28);
  ExpectGradCheck(a, [&] { return MseLoss(a, b); });
  ExpectGradCheck(b, [&] { return MseLoss(a, b); });
}

TEST(GradCheckTest, ComposedExpression) {
  // A small end-to-end expression resembling one GCN + softmax + loss.
  Tensor w = Param(4, 5, 0.8f, 29);
  Tensor x = Tensor(TestMatrix(6, 4, 1.0f, 30), false);
  auto sparse = std::make_shared<SparseMatrix>(
      6, 6,
      std::vector<Triplet>{{0, 1, 0.5f}, {1, 0, 0.5f}, {2, 3, 0.5f},
                           {3, 2, 0.5f}, {4, 5, 0.5f}, {5, 4, 0.5f},
                           {0, 0, 0.5f}, {1, 1, 0.5f}, {2, 2, 0.5f},
                           {3, 3, 0.5f}, {4, 4, 0.5f}, {5, 5, 0.5f}});
  Tensor picked = Tensor(TestMatrix(6, 5, 1.0f, 31), false);
  ExpectGradCheck(w, [&] {
    Tensor h = Relu(Spmm(sparse, Matmul(x, w)));
    Tensor s = SoftmaxRows(h);
    return SumAll(Mul(Log(AddConst(s, 0.01f)), picked));
  });
}

}  // namespace
}  // namespace cpgan::tensor
