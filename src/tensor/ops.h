#ifndef CPGAN_TENSOR_OPS_H_
#define CPGAN_TENSOR_OPS_H_

#include <memory>
#include <vector>

#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace cpgan::tensor {

/// \file
/// Differentiable operations over Tensor. Each function builds an autograd
/// node whose backward closure implements the exact analytic gradient; the
/// gradients are validated against central finite differences in
/// tests/tensor/autograd_test.cc.

// ---------------------------------------------------------------------------
// Elementwise binary ops (shapes must match unless stated otherwise).
// ---------------------------------------------------------------------------

/// a + b.
Tensor Add(const Tensor& a, const Tensor& b);
/// a - b.
Tensor Sub(const Tensor& a, const Tensor& b);
/// a ∘ b (Hadamard product).
Tensor Mul(const Tensor& a, const Tensor& b);

/// x + v where v is 1 x d, broadcast over rows (bias add).
Tensor AddRowVec(const Tensor& x, const Tensor& v);
/// x ∘ v where v is 1 x d, broadcast over rows.
Tensor MulRowVec(const Tensor& x, const Tensor& v);
/// x ∘ v where v is n x 1, broadcast over columns (row scaling).
Tensor MulColVec(const Tensor& x, const Tensor& v);

// ---------------------------------------------------------------------------
// Scalar-constant ops.
// ---------------------------------------------------------------------------

/// alpha * x.
Tensor Scale(const Tensor& x, float alpha);
/// x + c (every entry).
Tensor AddConst(const Tensor& x, float c);
/// x + s where s is a 1x1 tensor, broadcast to every entry (the decoder's
/// edge bias). The gradient of s sums each row of the upstream gradient in
/// double, then adds those row sums as floats in row order.
Tensor AddScalar(const Tensor& x, const Tensor& s);
/// -x.
Tensor Neg(const Tensor& x);

// ---------------------------------------------------------------------------
// Elementwise unary ops.
// ---------------------------------------------------------------------------

Tensor Relu(const Tensor& x);
Tensor Sigmoid(const Tensor& x);
Tensor Tanh(const Tensor& x);
Tensor Exp(const Tensor& x);
/// Natural log; inputs are clamped to >= kLogEps for stability.
Tensor Log(const Tensor& x);
Tensor Square(const Tensor& x);
/// Elementwise sqrt of non-negative inputs.
Tensor Sqrt(const Tensor& x);
/// log(1 + e^x), numerically stable.
Tensor Softplus(const Tensor& x);
/// 1 / x.
Tensor Reciprocal(const Tensor& x);

/// The forward map of Sigmoid on one value, 1 / (1 + e^-x), evaluated
/// without overflow for either sign. For tape-free scorers that must round
/// exactly like the op.
float StableSigmoid(float x);

/// Row-wise softmax.
Tensor SoftmaxRows(const Tensor& x);

// ---------------------------------------------------------------------------
// Matrix products.
// ---------------------------------------------------------------------------

/// a * b.
Tensor Matmul(const Tensor& a, const Tensor& b);
/// Sparse-dense product s * x; the sparse operand is a constant.
Tensor Spmm(std::shared_ptr<const SparseMatrix> s, const Tensor& x);
/// x^T.
Tensor Transpose(const Tensor& x);

// ---------------------------------------------------------------------------
// Structural ops.
// ---------------------------------------------------------------------------

/// Vertical stack (all inputs share the column count).
Tensor ConcatRows(const std::vector<Tensor>& parts);
/// Horizontal stack (all inputs share the row count).
Tensor ConcatCols(const std::vector<Tensor>& parts);
/// Selects rows by index (duplicates allowed); backward scatter-adds.
Tensor GatherRows(const Tensor& x, std::vector<int> indices);
/// Columns [start, start+len).
Tensor SliceCols(const Tensor& x, int start, int len);
/// Same number of elements, new shape (row-major order preserved).
Tensor Reshape(const Tensor& x, int rows, int cols);

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------

/// Sum of all entries -> 1x1.
Tensor SumAll(const Tensor& x);
/// Mean of all entries -> 1x1.
Tensor MeanAll(const Tensor& x);
/// Column means (collapse rows) -> 1 x d.
Tensor ColMean(const Tensor& x);
/// Row sums (collapse columns) -> n x 1.
Tensor RowSum(const Tensor& x);
/// Per-row L2 norms -> n x 1.
Tensor RowL2Norm(const Tensor& x);

// ---------------------------------------------------------------------------
// Losses (scalar outputs).
// ---------------------------------------------------------------------------

/// Mean binary cross-entropy between sigmoid(logits) and constant targets,
/// computed stably from the logits. `pos_weight` scales the positive term
/// (useful for sparse adjacency reconstruction).
Tensor BceWithLogits(const Tensor& logits, const Matrix& targets,
                     float pos_weight = 1.0f);

/// Mean squared error between two tensors (gradients to both).
Tensor MseLoss(const Tensor& a, const Tensor& b);

// ---------------------------------------------------------------------------
// Constants / helpers.
// ---------------------------------------------------------------------------

/// Wraps a constant matrix as a non-differentiable leaf.
Tensor Constant(Matrix value);

/// 1x1 constant.
Tensor ScalarConstant(float value);

// ---------------------------------------------------------------------------
// Numeric-health checks (training-guard support; see src/train/guard.h).
// ---------------------------------------------------------------------------

/// True if every entry is finite (no NaN/Inf).
bool AllFinite(const Matrix& m);

/// True if every parameter's accumulated gradient is finite. Parameters whose
/// gradient was never touched by Backward (zero-shaped) count as finite.
bool GradsFinite(const std::vector<Tensor>& params);

}  // namespace cpgan::tensor

#endif  // CPGAN_TENSOR_OPS_H_
