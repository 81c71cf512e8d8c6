#ifndef CPGAN_TENSOR_SPARSE_H_
#define CPGAN_TENSOR_SPARSE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "tensor/matrix.h"

namespace cpgan::tensor {

/// A (row, col, value) triplet used to build sparse matrices.
struct Triplet {
  int row = 0;
  int col = 0;
  float value = 0.0f;
};

/// Immutable CSR float sparse matrix.
///
/// Used for the level-0 normalized adjacency A-hat in the GCN layers: SpMM
/// against dense feature matrices is the dominant encoder operation and keeps
/// the per-layer cost at O(m + n) as analysed in Section III-C of the paper.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Builds from triplets. Duplicate (row, col) entries are summed.
  SparseMatrix(int rows, int cols, std::vector<Triplet> triplets);

  ~SparseMatrix();

  // The lazily built transpose cache (shared, immutable) travels with
  // copies; the mutex guarding its construction does not. Copies report
  // their own storage to util::MemoryTracker; moved-from matrices report
  // none.
  SparseMatrix(const SparseMatrix& other);
  SparseMatrix& operator=(const SparseMatrix& other);
  SparseMatrix(SparseMatrix&& other) noexcept;
  SparseMatrix& operator=(SparseMatrix&& other) noexcept;

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  const std::vector<int64_t>& row_offsets() const { return row_offsets_; }
  const std::vector<int>& col_indices() const { return col_indices_; }
  const std::vector<float>& values() const { return values_; }

  /// out = S * D  (rows x D.cols()). Row-parallel: each output row is a
  /// gather over this row's entries in column order, so the result is
  /// independent of the thread count.
  Matrix Multiply(const Matrix& dense) const;

  /// out = S^T * D. Implemented as a row-parallel gather over a lazily
  /// built (and cached) transposed CSR — the scatter form of the old
  /// implementation cannot parallelize without write conflicts. The
  /// per-output-row accumulation order (ascending original row index)
  /// matches the historical scatter order.
  Matrix MultiplyTransposed(const Matrix& dense) const;

  /// Per-row sums (rows x 1).
  Matrix RowSums() const;

  /// Returns the dense equivalent (for tests / tiny graphs).
  Matrix ToDense() const;

  /// Returns the transposed sparse matrix.
  SparseMatrix Transposed() const;

 private:
  /// Counting-sort transpose in O(nnz + rows + cols); no triplet re-sort.
  SparseMatrix BuildTransposed() const;

  /// Returns the cached transpose, building it on first use (thread-safe).
  const SparseMatrix& TransposedCached() const;

  /// Reports the entry storage to util::MemoryTracker (released by the
  /// destructor or on reassignment).
  void TrackStorage();

  int rows_ = 0;
  int cols_ = 0;
  std::vector<int64_t> row_offsets_;
  std::vector<int> col_indices_;
  std::vector<float> values_;
  size_t tracked_bytes_ = 0;  // figure reported to MemoryTracker

  mutable std::mutex transpose_mutex_;
  mutable std::shared_ptr<const SparseMatrix> transpose_cache_;
};

/// Builds the GCN-normalized adjacency D^{-1/2} (A + I) D^{-1/2} from an
/// undirected edge list over n nodes. Edges are symmetrized; self-loops are
/// added once.
SparseMatrix NormalizedAdjacency(int n, const std::vector<std::pair<int, int>>& edges);

/// Two-hop boosted variant of the normalized adjacency: the paper notes that
/// "information can flow among nodes faster if we use some variants of A~
/// (e.g. A~ = A + A^2) to improve the connectivity of graphs"
/// (Section III-C1). Adds weight `two_hop_weight` on each distinct two-hop
/// pair before symmetric normalization. Intended for small/sparse graphs
/// (the two-hop fill-in is bounded by sum of squared degrees).
SparseMatrix TwoHopNormalizedAdjacency(
    int n, const std::vector<std::pair<int, int>>& edges,
    float two_hop_weight = 0.5f);

}  // namespace cpgan::tensor

#endif  // CPGAN_TENSOR_SPARSE_H_
