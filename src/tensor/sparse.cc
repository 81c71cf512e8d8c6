#include "tensor/sparse.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/trace.h"
#include "tensor/kernels.h"
#include "util/memory_tracker.h"
#include "util/thread_pool.h"

namespace cpgan::tensor {

namespace {

/// Target work (entry-column products) per SpMM chunk. Rows are chunked so
/// a chunk covers roughly this many multiply-adds on an average row; the
/// grain is a pure function of the matrix shape, never the thread count.
constexpr int64_t kSpmmGrainFlops = 1 << 14;

int64_t SpmmRowGrain(int64_t rows, int64_t nnz, int64_t dense_cols) {
  const int64_t avg_row_flops =
      std::max<int64_t>(1, (nnz / std::max<int64_t>(rows, 1)) * dense_cols);
  return std::max<int64_t>(1, kSpmmGrainFlops / avg_row_flops);
}

}  // namespace

SparseMatrix::SparseMatrix(int rows, int cols, std::vector<Triplet> triplets)
    : rows_(rows), cols_(cols) {
  CPGAN_CHECK(rows >= 0 && cols >= 0);
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  row_offsets_.assign(rows_ + 1, 0);
  col_indices_.reserve(triplets.size());
  values_.reserve(triplets.size());
  for (size_t i = 0; i < triplets.size();) {
    const Triplet& t = triplets[i];
    CPGAN_CHECK(t.row >= 0 && t.row < rows_ && t.col >= 0 && t.col < cols_);
    float sum = 0.0f;
    size_t j = i;
    while (j < triplets.size() && triplets[j].row == t.row &&
           triplets[j].col == t.col) {
      sum += triplets[j].value;
      ++j;
    }
    col_indices_.push_back(t.col);
    values_.push_back(sum);
    row_offsets_[t.row + 1] += 1;
    i = j;
  }
  for (int r = 0; r < rows_; ++r) row_offsets_[r + 1] += row_offsets_[r];
  TrackStorage();
}

SparseMatrix::~SparseMatrix() {
  util::MemoryTracker::Global().Release(tracked_bytes_);
}

void SparseMatrix::TrackStorage() {
  util::MemoryTracker::Global().Release(tracked_bytes_);
  tracked_bytes_ =
      values_.size() * sizeof(float) + col_indices_.size() * sizeof(int);
  util::MemoryTracker::Global().Allocate(tracked_bytes_);
}

Matrix SparseMatrix::Multiply(const Matrix& dense) const {
  CPGAN_CHECK_EQ(cols_, dense.rows());
  CPGAN_TRACE_SPAN("tensor/spmm");
  Matrix out(rows_, dense.cols());
  const int d = dense.cols();
  // Each output row is owned by exactly one chunk; within a row, entries
  // accumulate in CSR (column-ascending) order for any thread count.
  const kernels::KernelOps& ops = kernels::Active();
  util::ParallelFor(
      0, rows_, SpmmRowGrain(rows_, nnz(), d), [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          float* orow = out.Row(static_cast<int>(r));
          for (int64_t idx = row_offsets_[r]; idx < row_offsets_[r + 1];
               ++idx) {
            ops.axpy(values_[idx], dense.Row(col_indices_[idx]), orow, d);
          }
        }
      });
  return out;
}

Matrix SparseMatrix::MultiplyTransposed(const Matrix& dense) const {
  CPGAN_CHECK_EQ(rows_, dense.rows());
  return TransposedCached().Multiply(dense);
}

SparseMatrix SparseMatrix::BuildTransposed() const {
  SparseMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_offsets_.assign(cols_ + 1, 0);
  t.col_indices_.resize(values_.size());
  t.values_.resize(values_.size());
  for (int c : col_indices_) t.row_offsets_[c + 1] += 1;
  for (int c = 0; c < cols_; ++c) t.row_offsets_[c + 1] += t.row_offsets_[c];
  std::vector<int64_t> cursor(t.row_offsets_.begin(), t.row_offsets_.end() - 1);
  for (int r = 0; r < rows_; ++r) {
    for (int64_t idx = row_offsets_[r]; idx < row_offsets_[r + 1]; ++idx) {
      int64_t dst = cursor[col_indices_[idx]]++;
      t.col_indices_[dst] = r;  // ascending per transposed row
      t.values_[dst] = values_[idx];
    }
  }
  t.TrackStorage();
  return t;
}

const SparseMatrix& SparseMatrix::TransposedCached() const {
  std::lock_guard<std::mutex> lock(transpose_mutex_);
  if (!transpose_cache_) {
    transpose_cache_ = std::make_shared<const SparseMatrix>(BuildTransposed());
  }
  return *transpose_cache_;
}

SparseMatrix::SparseMatrix(const SparseMatrix& other)
    : rows_(other.rows_),
      cols_(other.cols_),
      row_offsets_(other.row_offsets_),
      col_indices_(other.col_indices_),
      values_(other.values_),
      transpose_cache_(other.transpose_cache_) {
  TrackStorage();
}

SparseMatrix& SparseMatrix::operator=(const SparseMatrix& other) {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  row_offsets_ = other.row_offsets_;
  col_indices_ = other.col_indices_;
  values_ = other.values_;
  transpose_cache_ = other.transpose_cache_;
  TrackStorage();
  return *this;
}

SparseMatrix::SparseMatrix(SparseMatrix&& other) noexcept
    : rows_(other.rows_),
      cols_(other.cols_),
      row_offsets_(std::move(other.row_offsets_)),
      col_indices_(std::move(other.col_indices_)),
      values_(std::move(other.values_)),
      tracked_bytes_(std::exchange(other.tracked_bytes_, 0)),
      transpose_cache_(std::move(other.transpose_cache_)) {
  other.rows_ = 0;
  other.cols_ = 0;
}

SparseMatrix& SparseMatrix::operator=(SparseMatrix&& other) noexcept {
  if (this == &other) return *this;
  util::MemoryTracker::Global().Release(tracked_bytes_);
  rows_ = other.rows_;
  cols_ = other.cols_;
  row_offsets_ = std::move(other.row_offsets_);
  col_indices_ = std::move(other.col_indices_);
  values_ = std::move(other.values_);
  tracked_bytes_ = std::exchange(other.tracked_bytes_, 0);
  transpose_cache_ = std::move(other.transpose_cache_);
  other.rows_ = 0;
  other.cols_ = 0;
  return *this;
}

Matrix SparseMatrix::RowSums() const {
  Matrix out(rows_, 1);
  for (int r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (int64_t idx = row_offsets_[r]; idx < row_offsets_[r + 1]; ++idx) {
      acc += values_[idx];
    }
    out.At(r, 0) = static_cast<float>(acc);
  }
  return out;
}

Matrix SparseMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int64_t idx = row_offsets_[r]; idx < row_offsets_[r + 1]; ++idx) {
      out.At(r, col_indices_[idx]) = values_[idx];
    }
  }
  return out;
}

SparseMatrix SparseMatrix::Transposed() const { return BuildTransposed(); }

SparseMatrix NormalizedAdjacency(
    int n, const std::vector<std::pair<int, int>>& edges) {
  std::vector<double> degree(n, 1.0);  // self-loop contributes 1
  std::vector<Triplet> triplets;
  triplets.reserve(edges.size() * 2 + n);
  for (const auto& [u, v] : edges) {
    CPGAN_CHECK(u >= 0 && u < n && v >= 0 && v < n);
    if (u == v) continue;
    degree[u] += 1.0;
    degree[v] += 1.0;
  }
  std::vector<float> inv_sqrt(n);
  for (int i = 0; i < n; ++i) {
    inv_sqrt[i] = static_cast<float>(1.0 / std::sqrt(degree[i]));
  }
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    float w = inv_sqrt[u] * inv_sqrt[v];
    triplets.push_back({u, v, w});
    triplets.push_back({v, u, w});
  }
  for (int i = 0; i < n; ++i) {
    triplets.push_back({i, i, inv_sqrt[i] * inv_sqrt[i]});
  }
  return SparseMatrix(n, n, std::move(triplets));
}

SparseMatrix TwoHopNormalizedAdjacency(
    int n, const std::vector<std::pair<int, int>>& edges,
    float two_hop_weight) {
  // Build one-hop neighbor lists.
  std::vector<std::vector<int>> neighbors(n);
  for (const auto& [u, v] : edges) {
    CPGAN_CHECK(u >= 0 && u < n && v >= 0 && v < n);
    if (u == v) continue;
    neighbors[u].push_back(v);
    neighbors[v].push_back(u);
  }
  // Weighted adjacency W = A + w * A2 (A2 = distinct two-hop pairs).
  std::vector<Triplet> triplets;
  std::vector<double> degree(n, 1.0);  // self-loop mass
  std::vector<int> mark(n, -1);
  std::vector<std::pair<int, float>> row;
  for (int u = 0; u < n; ++u) {
    row.clear();
    for (int v : neighbors[u]) {
      if (mark[v] != u) {
        mark[v] = u;
        row.push_back({v, 1.0f});
      }
    }
    for (int v : neighbors[u]) {
      for (int w : neighbors[v]) {
        if (w == u) continue;
        if (mark[w] != u) {
          mark[w] = u;
          row.push_back({w, two_hop_weight});
        }
      }
    }
    for (const auto& [v, weight] : row) {
      triplets.push_back({u, v, weight});
      degree[u] += weight;
    }
  }
  std::vector<float> inv_sqrt(n);
  for (int i = 0; i < n; ++i) {
    inv_sqrt[i] = static_cast<float>(1.0 / std::sqrt(degree[i]));
  }
  for (Triplet& t : triplets) {
    t.value *= inv_sqrt[t.row] * inv_sqrt[t.col];
  }
  for (int i = 0; i < n; ++i) {
    triplets.push_back({i, i, inv_sqrt[i] * inv_sqrt[i]});
  }
  return SparseMatrix(n, n, std::move(triplets));
}

}  // namespace cpgan::tensor
