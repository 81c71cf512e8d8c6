#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"
#include "util/memory_tracker.h"
#include "tests/test_util.h"

namespace cpgan::tensor {
namespace {

using cpgan::testing::TestMatrix;

TEST(TensorTest, DefaultHandleUndefined) {
  Tensor t;
  EXPECT_FALSE(t.defined());
}

TEST(TensorTest, LeafConstruction) {
  Tensor t(Matrix(2, 3, 1.5f), /*requires_grad=*/true);
  EXPECT_TRUE(t.defined());
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_TRUE(t.requires_grad());
  EXPECT_FLOAT_EQ(t.value().At(0, 0), 1.5f);
}

TEST(TensorTest, RequiresGradPropagates) {
  Tensor a(Matrix(2, 2, 1.0f), true);
  Tensor b(Matrix(2, 2, 1.0f), false);
  EXPECT_TRUE(Add(a, b).requires_grad());
  EXPECT_FALSE(Add(b, b).requires_grad());
  EXPECT_FALSE(Add(a, b).Detach().requires_grad());
}

TEST(TensorTest, ScalarAccessor) {
  EXPECT_FLOAT_EQ(ScalarConstant(2.5f).Scalar(), 2.5f);
}

TEST(TensorTest, SharedHandleSemantics) {
  Tensor a(Matrix(1, 1, 1.0f), true);
  Tensor b = a;  // same node
  b.mutable_value().At(0, 0) = 9.0f;
  EXPECT_FLOAT_EQ(a.value().At(0, 0), 9.0f);
}

TEST(BackwardTest, DiamondGraphAccumulates) {
  // loss = sum(x + x^2): both branches contribute to x's gradient.
  Tensor x(Matrix(1, 1, 3.0f), true);
  Tensor loss = SumAll(Add(x, Square(x)));
  Backward(loss);
  EXPECT_FLOAT_EQ(x.grad().At(0, 0), 1.0f + 2.0f * 3.0f);
}

TEST(BackwardTest, DeepChain) {
  Tensor x(Matrix(1, 1, 1.0f), true);
  Tensor y = x;
  for (int i = 0; i < 50; ++i) y = Scale(y, 1.01f);
  Backward(SumAll(y));
  EXPECT_NEAR(x.grad().At(0, 0), std::pow(1.01f, 50.0f), 1e-3f);
}

TEST(BackwardTest, RepeatedBackwardAccumulates) {
  Tensor x(Matrix(1, 1, 2.0f), true);
  Tensor loss = SumAll(Square(x));
  Backward(loss);
  float first = x.grad().At(0, 0);
  Tensor loss2 = SumAll(Square(x));
  Backward(loss2);
  EXPECT_FLOAT_EQ(x.grad().At(0, 0), 2.0f * first);
}

TEST(BackwardTest, UnreachableBranchUntouched) {
  Tensor x(Matrix(1, 1, 1.0f), true);
  Tensor y(Matrix(1, 1, 1.0f), true);
  Tensor unused = Square(y);  // not part of the loss graph
  Backward(SumAll(Square(x)));
  EXPECT_FLOAT_EQ(y.grad().Norm(), 0.0f);
  (void)unused;
}

TEST(BackwardTest, WideFanIn) {
  Tensor x(Matrix(1, 4, 1.0f), true);
  std::vector<Tensor> parts;
  for (int i = 0; i < 16; ++i) parts.push_back(Scale(x, 1.0f));
  Tensor loss = SumAll(ConcatRows(parts));
  Backward(loss);
  for (int c = 0; c < 4; ++c) EXPECT_FLOAT_EQ(x.grad().At(0, c), 16.0f);
}

TEST(BackwardTest, ConstantsReceiveNoGradient) {
  Tensor c = Constant(TestMatrix(3, 3, 1.0f, 1));
  Tensor x(TestMatrix(3, 3, 1.0f, 2), true);
  Backward(SumAll(Mul(c, x)));
  // Constants don't track gradients; the call must not crash and the
  // variable's gradient equals the constant's values.
  for (int64_t i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(x.grad().data()[i], c.value().data()[i]);
  }
}

TEST(BackwardTest, GraphFreedAfterHandlesDrop) {
  // Building and dropping large graphs must not leak (tracked allocations
  // return to the baseline).
  Tensor x(Matrix(50, 50, 1.0f), true);
  int64_t before = util::MemoryTracker::Global().live_bytes();
  {
    Tensor y = Matmul(x, Transpose(x));
    for (int i = 0; i < 10; ++i) y = Relu(y);
    Backward(MeanAll(y));
  }
  x.ZeroGrad();
  EXPECT_LE(util::MemoryTracker::Global().live_bytes(), before + 16);

  // Sparse storage too: a normalized adjacency, its cached transpose (built
  // by Spmm's backward), and copies and moves of the matrix all hand their
  // bytes back when dropped.
  {
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i + 1 < 50; ++i) edges.push_back({i, i + 1});
    auto a_hat = std::make_shared<const SparseMatrix>(
        NormalizedAdjacency(50, edges));
    Backward(MeanAll(Spmm(a_hat, x)));
    SparseMatrix copy = *a_hat;
    SparseMatrix assigned;
    assigned = copy;
    SparseMatrix moved = std::move(copy);
    SparseMatrix move_assigned;
    move_assigned = std::move(assigned);
    EXPECT_GT(util::MemoryTracker::Global().live_bytes(), before + 16);
  }
  x.ZeroGrad();
  EXPECT_LE(util::MemoryTracker::Global().live_bytes(), before + 16);
}

}  // namespace
}  // namespace cpgan::tensor
