#ifndef CPGAN_TESTING_DIFF_HARNESS_H_
#define CPGAN_TESTING_DIFF_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/sparse.h"

namespace cpgan::testing {

/// \file
/// Kernel differential harness: trusted naive serial references for every
/// optimized kernel in tensor/ (the PR-2 blocked/parallel paths), plus
/// comparison helpers and a scoped thread-count override so the numeric
/// tests can pit the kernels against the references at 1/2/8 threads and at
/// shapes straddling the serial/blocked cutoffs and tile boundaries
/// (63/64/65). See docs/TESTING.md.
///
/// References accumulate in double and round once at the end, so they are
/// the most accurate float answer available; optimized float kernels are
/// compared against them with a small relative tolerance rather than
/// bitwise (their summation order differs by design).

/// C = A * B, naive triple loop, double accumulator per output entry.
tensor::Matrix RefMatmul(const tensor::Matrix& a, const tensor::Matrix& b);

/// C = A^T * B.
tensor::Matrix RefMatmulTN(const tensor::Matrix& a, const tensor::Matrix& b);

/// C = A * B^T.
tensor::Matrix RefMatmulNT(const tensor::Matrix& a, const tensor::Matrix& b);

/// C = S * D via the CSR arrays, double accumulator.
tensor::Matrix RefSpmm(const tensor::SparseMatrix& s,
                       const tensor::Matrix& dense);

/// C = S^T * D without building a transposed CSR (scatter form).
tensor::Matrix RefSpmmTransposed(const tensor::SparseMatrix& s,
                                 const tensor::Matrix& dense);

/// A^T, naive.
tensor::Matrix RefTranspose(const tensor::Matrix& a);

/// Sum of all entries, serial double accumulator.
double RefSum(const tensor::Matrix& m);

/// Frobenius norm, serial double accumulator.
double RefFrobeniusNorm(const tensor::Matrix& m);

/// Elementwise comparison statistics between an optimized result and a
/// reference.
struct DiffStats {
  bool shape_mismatch = false;
  int64_t compared = 0;
  double max_abs_diff = 0.0;
  /// |got - want| / max(1, |want|) — relative for large entries, absolute
  /// for small ones.
  double max_rel_diff = 0.0;
  int worst_row = -1;
  int worst_col = -1;
  double worst_got = 0.0;
  double worst_want = 0.0;

  std::string Summary() const;
};

/// Compares `got` (optimized kernel) against `want` (reference).
DiffStats Compare(const tensor::Matrix& got, const tensor::Matrix& want);

/// True if the two matrices have the same shape and identical bit patterns
/// (the determinism contract across thread counts).
bool BitwiseEqual(const tensor::Matrix& a, const tensor::Matrix& b);

/// Deterministic pseudo-random matrix in [-scale, scale] (no global RNG
/// stream involvement, so harness inputs never perturb reproducibility).
tensor::Matrix RandomMatrix(int rows, int cols, uint64_t seed,
                            float scale = 1.0f);

/// Deterministic random CSR matrix with approximately `density` nonzeros.
tensor::SparseMatrix RandomSparse(int rows, int cols, double density,
                                  uint64_t seed);

/// Dimensions straddling the kernel tile boundaries (kTileRows/kTileK = 64)
/// and degenerate edges: {1, 2, 31, 63, 64, 65, 127}.
const std::vector<int>& BoundaryDims();

/// RAII override of the global thread-pool size; restores the previous
/// count on destruction.
class ScopedThreads {
 public:
  explicit ScopedThreads(int num_threads);
  ~ScopedThreads();

  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  int previous_;
};

/// RAII override of the active kernel backend; restores the previous
/// selection on destruction. CHECK-fails on an unavailable name — tests
/// iterate kernels::AvailableBackends(), so a miss is a test bug, not an
/// environment condition.
class ScopedBackend {
 public:
  explicit ScopedBackend(const std::string& name);
  ~ScopedBackend();

  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  std::string previous_;
};

}  // namespace cpgan::testing

#endif  // CPGAN_TESTING_DIFF_HARNESS_H_
