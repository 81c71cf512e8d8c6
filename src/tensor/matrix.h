#ifndef CPGAN_TENSOR_MATRIX_H_
#define CPGAN_TENSOR_MATRIX_H_

#include <cstdint>

#include "util/aligned.h"
#include "util/check.h"
#include "util/rng.h"

namespace cpgan::tensor {

/// Dense row-major 2-D float matrix.
///
/// This is the storage type underlying the autograd engine. All shapes in the
/// library are rank-2; higher-rank quantities (e.g. the n x k x d ladder
/// features) are represented as vectors of matrices, one per hierarchy level.
/// Storage is 64-byte aligned (util::AlignedFloats) so the SIMD kernel
/// backends issue unmasked vector loads, and every allocation — alignment
/// padding included — is reported to util::MemoryTracker so the benchmarks
/// and the serving memory-pressure ladder see the real footprint.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix();

  /// rows x cols matrix, zero-initialized.
  Matrix(int rows, int cols);

  /// rows x cols matrix with every entry set to `fill`.
  Matrix(int rows, int cols, float fill);

  Matrix(const Matrix& other);
  Matrix& operator=(const Matrix& other);
  Matrix(Matrix&& other) noexcept;
  Matrix& operator=(Matrix&& other) noexcept;
  ~Matrix();

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t size() const { return static_cast<int64_t>(rows_) * cols_; }

  float& At(int r, int c) {
    CPGAN_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<int64_t>(r) * cols_ + c];
  }
  float At(int r, int c) const {
    CPGAN_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<int64_t>(r) * cols_ + c];
  }

  /// Unchecked element access for hot loops.
  float* Row(int r) { return data_.data() + static_cast<int64_t>(r) * cols_; }
  const float* Row(int r) const {
    return data_.data() + static_cast<int64_t>(r) * cols_;
  }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Sets every entry to `value`.
  void Fill(float value);

  /// Fills with N(0, stddev^2) samples.
  void FillNormal(util::Rng& rng, float stddev);

  /// Fills with U(lo, hi) samples.
  void FillUniform(util::Rng& rng, float lo, float hi);

  /// True if shapes match.
  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Frobenius norm.
  float Norm() const;

  /// Sum of all entries.
  float Sum() const;

  /// this += other (shapes must match).
  void AddInPlace(const Matrix& other);

  /// this += alpha * other (shapes must match).
  void Axpy(float alpha, const Matrix& other);

  /// this *= alpha.
  void Scale(float alpha);

  /// Returns the transpose.
  Matrix Transposed() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  util::AlignedFloats data_;
};

/// C = A * B.
Matrix Matmul(const Matrix& a, const Matrix& b);

/// C = A^T * B. Above the serial cutoff, A^T is materialized by
/// Transposed() and the blocked Matmul kernel runs on it.
Matrix MatmulTN(const Matrix& a, const Matrix& b);

/// C = A * B^T without materializing B^T: one row of A against four rows
/// of B per kernel call, each element accumulated in double in the
/// backend's fixed dot order (KernelOps::dot4).
Matrix MatmulNT(const Matrix& a, const Matrix& b);

/// C += A * B into an existing accumulator (shape checked).
void MatmulAccum(const Matrix& a, const Matrix& b, Matrix& out);

}  // namespace cpgan::tensor

#endif  // CPGAN_TENSOR_MATRIX_H_
