// Gradient checks for every autograd op in tensor/ops.h via the central
// finite-difference checker (src/testing/gradcheck.h). Each CheckOpGradient
// call marks its op in the coverage registry; gradcheck_coverage.cc asserts
// at teardown that no required op was missed. Shapes deliberately include
// non-square and degenerate cases (1 x N, N x 1) — several historical bugs
// only bite off the square path.

#include <memory>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "testing/gradcheck.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace cpgan::tensor {
namespace {

using cpgan::testing::CheckOpGradient;
using cpgan::testing::GradCheckOptions;
using cpgan::testing::GradCheckResult;
using cpgan::testing::TestMatrix;

Tensor Param(int rows, int cols, float scale = 1.0f, uint64_t seed = 7) {
  return Tensor(TestMatrix(rows, cols, scale, seed), /*requires_grad=*/true);
}

/// Shifts every entry by `offset` (to move inputs away from kinks/poles).
Tensor ShiftedParam(int rows, int cols, float offset, float scale = 0.5f,
                    uint64_t seed = 7) {
  Tensor t = Param(rows, cols, scale, seed);
  for (int64_t i = 0; i < t.value().size(); ++i) {
    t.mutable_value().data()[i] += offset;
  }
  return t;
}

void ExpectOk(const GradCheckResult& result) {
  EXPECT_TRUE(result.ok) << result.Summary();
  EXPECT_GT(result.entries_checked, 0);
}

/// The shape grid every elementwise op is checked on: square, wide, tall,
/// single row, single column, single element.
const std::vector<std::pair<int, int>> kShapes = {
    {3, 3}, {2, 5}, {5, 2}, {1, 4}, {4, 1}, {1, 1}};

TEST(GradCheckOps, Add) {
  for (auto [r, c] : kShapes) {
    Tensor a = Param(r, c, 1.0f, 1);
    Tensor b = Param(r, c, 1.0f, 2);
    ExpectOk(CheckOpGradient(
        "Add", [&] { return SumAll(Square(Add(a, b))); }, {a, b}));
  }
}

TEST(GradCheckOps, Sub) {
  for (auto [r, c] : kShapes) {
    Tensor a = Param(r, c, 1.0f, 3);
    Tensor b = Param(r, c, 1.0f, 4);
    ExpectOk(CheckOpGradient(
        "Sub", [&] { return SumAll(Square(Sub(a, b))); }, {a, b}));
  }
}

TEST(GradCheckOps, Mul) {
  for (auto [r, c] : kShapes) {
    Tensor a = Param(r, c, 1.0f, 5);
    Tensor b = Param(r, c, 1.0f, 6);
    ExpectOk(CheckOpGradient(
        "Mul", [&] { return SumAll(Mul(a, b)); }, {a, b}));
  }
}

TEST(GradCheckOps, AddRowVec) {
  for (auto [r, c] : kShapes) {
    Tensor x = Param(r, c, 1.0f, 9);
    Tensor v = Param(1, c, 1.0f, 10);
    ExpectOk(CheckOpGradient(
        "AddRowVec", [&] { return SumAll(Square(AddRowVec(x, v))); },
        {x, v}));
  }
}

TEST(GradCheckOps, MulRowVec) {
  for (auto [r, c] : kShapes) {
    Tensor x = Param(r, c, 1.0f, 11);
    Tensor v = Param(1, c, 1.0f, 12);
    ExpectOk(CheckOpGradient(
        "MulRowVec", [&] { return SumAll(Square(MulRowVec(x, v))); },
        {x, v}));
  }
}

TEST(GradCheckOps, MulColVec) {
  for (auto [r, c] : kShapes) {
    Tensor x = Param(r, c, 1.0f, 13);
    Tensor v = Param(r, 1, 1.0f, 14);
    ExpectOk(CheckOpGradient(
        "MulColVec", [&] { return SumAll(Square(MulColVec(x, v))); },
        {x, v}));
  }
}

TEST(GradCheckOps, AddScalar) {
  for (auto [r, c] : kShapes) {
    Tensor x = Param(r, c, 1.0f, 43);
    Tensor s = Param(1, 1, 1.0f, 44);
    ExpectOk(CheckOpGradient(
        "AddScalar", [&] { return SumAll(Square(AddScalar(x, s))); },
        {x, s}));
  }
}

TEST(GradCheckOps, ScaleAndAddConstAndNeg) {
  Tensor x = Param(3, 5, 1.0f, 15);
  ExpectOk(CheckOpGradient(
      "Scale", [&] { return SumAll(Square(Scale(x, 1.7f))); }, {x}));
  ExpectOk(CheckOpGradient(
      "AddConst", [&] { return SumAll(Square(AddConst(x, 0.4f))); }, {x}));
  ExpectOk(CheckOpGradient(
      "Neg", [&] { return SumAll(Square(Neg(x))); }, {x}));
}

TEST(GradCheckOps, ElementwiseUnary) {
  // Relu needs inputs away from the kink at 0 (finite differences straddle
  // it); shift by 0.5 with scale 0.4 keeps |x| in [0.1, 0.9].
  Tensor pos = ShiftedParam(4, 3, 0.5f, 0.4f, 16);
  Tensor neg = ShiftedParam(4, 3, -0.5f, 0.4f, 17);
  ExpectOk(CheckOpGradient(
      "Relu", [&] { return SumAll(Square(Relu(pos))); }, {pos}));
  ExpectOk(CheckOpGradient(
      "Relu", [&] { return SumAll(Square(Relu(neg))); }, {neg}));

  Tensor x = Param(3, 4, 1.5f, 18);
  ExpectOk(CheckOpGradient(
      "Sigmoid", [&] { return SumAll(Square(Sigmoid(x))); }, {x}));
  ExpectOk(CheckOpGradient(
      "Tanh", [&] { return SumAll(Square(Tanh(x))); }, {x}));
  ExpectOk(CheckOpGradient(
      "Exp", [&] { return SumAll(Exp(Scale(x, 0.5f))); }, {x}));
  ExpectOk(CheckOpGradient(
      "Square", [&] { return SumAll(Square(x)); }, {x}));
  ExpectOk(CheckOpGradient(
      "Softplus", [&] { return SumAll(Square(Softplus(x))); }, {x}));

  // Log/Sqrt/Reciprocal need strictly positive inputs clear of their
  // clamps/poles.
  Tensor positive = ShiftedParam(3, 4, 2.0f, 0.8f, 19);
  ExpectOk(CheckOpGradient(
      "Log", [&] { return SumAll(Square(Log(positive))); }, {positive}));
  ExpectOk(CheckOpGradient(
      "Sqrt", [&] { return SumAll(Square(Sqrt(positive))); }, {positive}));
  ExpectOk(CheckOpGradient(
      "Reciprocal", [&] { return SumAll(Square(Reciprocal(positive))); },
      {positive}));
}

TEST(GradCheckOps, SoftmaxRows) {
  for (auto [r, c] : kShapes) {
    Tensor x = Param(r, c, 1.5f, 20);
    Tensor weights = Tensor(TestMatrix(r, c, 1.0f, 21), false);
    // Weighted sum so the softmax Jacobian's off-diagonal terms matter.
    ExpectOk(CheckOpGradient(
        "SoftmaxRows",
        [&] { return SumAll(Mul(SoftmaxRows(x), weights)); }, {x}));
  }
}

TEST(GradCheckOps, SoftmaxRowsZeroColumnsRegression) {
  // Pinned regression: SoftmaxRows on an n x 0 input used to read row[0]
  // out of bounds while searching for the row max. The softmax of an empty
  // row is the empty row, and backward must still reach the input.
  Tensor x = Param(3, 0, 1.0f, 22);
  Tensor y = SoftmaxRows(x);
  EXPECT_EQ(y.rows(), 3);
  EXPECT_EQ(y.cols(), 0);
  Tensor loss = Add(SumAll(y), SumAll(x));
  Backward(loss);
  EXPECT_EQ(x.grad().rows(), 3);
}

TEST(GradCheckOps, Matmul) {
  const std::vector<std::array<int, 3>> shapes = {
      {3, 4, 2}, {1, 5, 3}, {4, 1, 3}, {3, 5, 1}, {1, 1, 1}};
  for (auto [n, k, m] : shapes) {
    Tensor a = Param(n, k, 1.0f, 25);
    Tensor b = Param(k, m, 1.0f, 26);
    ExpectOk(CheckOpGradient(
        "Matmul", [&] { return SumAll(Square(Matmul(a, b))); }, {a, b}));
  }
}

TEST(GradCheckOps, Spmm) {
  auto sparse = std::make_shared<SparseMatrix>(
      3, 4, std::vector<Triplet>{
                {0, 0, 1.0f}, {0, 3, -2.0f}, {1, 1, 0.5f}, {2, 2, 1.5f},
                {2, 0, -0.7f}});
  Tensor x = Param(4, 3, 1.0f, 27);
  ExpectOk(CheckOpGradient(
      "Spmm", [&] { return SumAll(Square(Spmm(sparse, x))); }, {x}));
}

TEST(GradCheckOps, Transpose) {
  for (auto [r, c] : kShapes) {
    Tensor x = Param(r, c, 1.0f, 28);
    Tensor mixer = Tensor(TestMatrix(c, r, 1.0f, 29), false);
    ExpectOk(CheckOpGradient(
        "Transpose", [&] { return SumAll(Mul(Transpose(x), mixer)); }, {x}));
  }
}

TEST(GradCheckOps, Concat) {
  Tensor a = Param(2, 3, 1.0f, 30);
  Tensor b = Param(4, 3, 1.0f, 31);
  ExpectOk(CheckOpGradient(
      "ConcatRows", [&] { return SumAll(Square(ConcatRows({a, b}))); },
      {a, b}));
  Tensor c = Param(3, 2, 1.0f, 32);
  Tensor d = Param(3, 4, 1.0f, 33);
  ExpectOk(CheckOpGradient(
      "ConcatCols", [&] { return SumAll(Square(ConcatCols({c, d}))); },
      {c, d}));
}

TEST(GradCheckOps, GatherRows) {
  Tensor x = Param(5, 3, 1.0f, 34);
  // Duplicate indices: backward must scatter-add, not overwrite.
  std::vector<int> indices = {4, 0, 2, 0, 0};
  ExpectOk(CheckOpGradient(
      "GatherRows",
      [&] { return SumAll(Square(GatherRows(x, indices))); }, {x}));
  // Empty gather: zero-row output, gradient flows (as zero) to the input.
  Tensor empty_out = GatherRows(x, {});
  EXPECT_EQ(empty_out.rows(), 0);
  EXPECT_EQ(empty_out.cols(), 3);
}

TEST(GradCheckOps, SliceCols) {
  Tensor x = Param(3, 6, 1.0f, 35);
  ExpectOk(CheckOpGradient(
      "SliceCols", [&] { return SumAll(Square(SliceCols(x, 1, 3))); }, {x}));
  // Zero-length slice.
  Tensor zero = SliceCols(x, 2, 0);
  EXPECT_EQ(zero.cols(), 0);
}

TEST(GradCheckOps, Reshape) {
  Tensor x = Param(3, 4, 1.0f, 36);
  Tensor mixer = Tensor(TestMatrix(6, 2, 1.0f, 37), false);
  ExpectOk(CheckOpGradient(
      "Reshape", [&] { return SumAll(Mul(Reshape(x, 6, 2), mixer)); }, {x}));
}

TEST(GradCheckOps, Reductions) {
  for (auto [r, c] : kShapes) {
    Tensor x = Param(r, c, 1.0f, 38);
    ExpectOk(CheckOpGradient(
        "SumAll", [&] { return Square(SumAll(x)); }, {x}));
    ExpectOk(CheckOpGradient(
        "MeanAll", [&] { return Square(MeanAll(x)); }, {x}));
    ExpectOk(CheckOpGradient(
        "ColMean", [&] { return SumAll(Square(ColMean(x))); }, {x}));
    ExpectOk(CheckOpGradient(
        "RowSum", [&] { return SumAll(Square(RowSum(x))); }, {x}));
  }
  // RowL2Norm has a pole at zero rows; shift inputs away from the origin.
  Tensor away = ShiftedParam(4, 3, 1.0f, 0.3f, 39);
  ExpectOk(CheckOpGradient(
      "RowL2Norm", [&] { return SumAll(Square(RowL2Norm(away))); }, {away}));
}

TEST(GradCheckOps, Losses) {
  Tensor logits = Param(4, 3, 1.5f, 40);
  Matrix targets(4, 3);
  uint64_t state = 5;
  for (int64_t i = 0; i < targets.size(); ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    targets.data()[i] = (state >> 62) & 1 ? 1.0f : 0.0f;
  }
  ExpectOk(CheckOpGradient(
      "BceWithLogits",
      [&] { return BceWithLogits(logits, targets, 2.0f); }, {logits}));

  Tensor a = Param(3, 4, 1.0f, 41);
  Tensor b = Param(3, 4, 1.0f, 42);
  ExpectOk(CheckOpGradient("MseLoss", [&] { return MseLoss(a, b); }, {a, b}));
}

}  // namespace
}  // namespace cpgan::tensor
