#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/kernels.h"
#include "util/thread_pool.h"

namespace cpgan::tensor {

namespace {

/// Cache-blocking tile sizes for the dense kernels. Row panels of kTileRows
/// output rows are the unit of parallelism, kTileK is the k-tile depth and
/// kTileCols the width of a packed B tile. Per output element the
/// accumulation order is (k-tile ascending, k ascending) regardless of the
/// j width, so the width only moves wall-clock: any width gives
/// bitwise-identical results within a backend. On avx2, 128 is within 2.5%
/// of the fastest of 32/64/128/256 on every product shape the model runs
/// (docs/INTERNALS.md, "Tile width").
constexpr int kTileRows = 64;
constexpr int kTileK = 64;
constexpr int kTileCols = 128;
/// Blocking for Transposed() (data movement only): column bands of
/// kTransposeTileCols, copied in square blocks of kTransposeBlock.
constexpr int kTransposeTileCols = 64;
constexpr int kTransposeBlock = 8;

/// MatmulNT runs one A row against this many B rows per dot4 call.
constexpr int kDotRows = 4;

/// Below this many multiply-adds the blocked/parallel path is not worth its
/// setup; the original streaming i-k-j loop runs instead. The cutoff is a
/// pure function of the shapes, so the chosen path — and therefore the
/// floating-point order — never depends on the thread count. Small products
/// always use the scalar loops, so they are additionally identical across
/// kernel backends.
constexpr int64_t kSerialMatmulFlops = 1 << 15;

/// Flat elementwise loops shorter than this run inline without the pool.
constexpr int64_t kElemGrain = 1 << 15;

/// B (k x m, row-major) repacked tile-major into 64-byte-aligned storage:
/// tiles ordered by (k-tile, j-tile), each tile stored row-major with its
/// exact width as the stride. Offset math: all k-tiles before `kt` hold
/// kt*kTileK full-width rows, and within k-tile `kt` (kb rows) the tiles
/// before `jt` hold kb * jt*kTileCols elements.
struct PackedB {
  util::AlignedFloats data;
  int k = 0;
  int m = 0;

  const float* Tile(int kt, int jt, int kb) const {
    return data.data() + static_cast<int64_t>(kt) * kTileK * m +
           static_cast<int64_t>(kb) * jt * kTileCols;
  }
};

PackedB PackB(const Matrix& b) {
  PackedB packed;
  packed.k = b.rows();
  packed.m = b.cols();
  packed.data.resize(b.size());
  const int k = packed.k;
  const int m = packed.m;
  const int num_ktiles = (k + kTileK - 1) / kTileK;
  util::ParallelFor(0, num_ktiles, 1, [&](int64_t t0, int64_t t1) {
    for (int64_t kt = t0; kt < t1; ++kt) {
      const int kk0 = static_cast<int>(kt) * kTileK;
      const int kb = std::min(kTileK, k - kk0);
      for (int j0 = 0, jt = 0; j0 < m; j0 += kTileCols, ++jt) {
        const int jb = std::min(kTileCols, m - j0);
        float* dst = packed.data.data() +
                     static_cast<int64_t>(kt) * kTileK * m +
                     static_cast<int64_t>(kb) * jt * kTileCols;
        for (int r = 0; r < kb; ++r) {
          std::memcpy(dst + static_cast<int64_t>(r) * jb,
                      b.Row(kk0 + r) + j0, sizeof(float) * jb);
        }
      }
    }
  });
  return packed;
}

/// out[i0:i1) += A[i0:i1) * B via the active backend's macro-kernel over the
/// packed tiles. Per output row the accumulation order is (k-tile asc,
/// j-tile asc, k asc) — independent of the panel boundaries and of the tile
/// width, so results are identical for any thread count.
void MatmulPanel(const Matrix& a, const PackedB& packed, Matrix& out,
                 const kernels::KernelOps& ops, int64_t i0, int64_t i1) {
  const int k = packed.k;
  const int m = packed.m;
  for (int kk0 = 0, kt = 0; kk0 < k; kk0 += kTileK, ++kt) {
    const int kb = std::min(kTileK, k - kk0);
    for (int j0 = 0, jt = 0; j0 < m; j0 += kTileCols, ++jt) {
      const int jb = std::min(kTileCols, m - j0);
      const float* tile = packed.Tile(kt, jt, kb);
      for (int64_t i = i0; i < i1; ++i) {
        ops.matmul_tile(a.Row(static_cast<int>(i)) + kk0, tile,
                        out.Row(static_cast<int>(i)) + j0, kb, jb);
      }
    }
  }
}

/// The original streaming i-k-j loop, kept for small products. Always
/// scalar (see kSerialMatmulFlops).
void MatmulSerialSmall(const Matrix& a, const Matrix& b, Matrix& out) {
  const int n = a.rows();
  const int k = a.cols();
  const int m = b.cols();
  for (int i = 0; i < n; ++i) {
    const float* arow = a.Row(i);
    float* orow = out.Row(i);
    for (int kk = 0; kk < k; ++kk) {
      float aik = arow[kk];
      if (aik == 0.0f) continue;
      const float* brow = b.Row(kk);
      for (int j = 0; j < m; ++j) orow[j] += aik * brow[j];
    }
  }
}

}  // namespace

Matrix::Matrix() = default;

Matrix::Matrix(int rows, int cols) : rows_(rows), cols_(cols) {
  CPGAN_CHECK(rows >= 0 && cols >= 0);
  data_.assign(size(), 0.0f);
}

Matrix::Matrix(int rows, int cols, float fill) : rows_(rows), cols_(cols) {
  CPGAN_CHECK(rows >= 0 && cols >= 0);
  data_.assign(size(), fill);
}

Matrix::Matrix(const Matrix& other) = default;

Matrix& Matrix::operator=(const Matrix& other) = default;

Matrix::Matrix(Matrix&& other) noexcept
    : rows_(other.rows_), cols_(other.cols_), data_(std::move(other.data_)) {
  other.rows_ = 0;
  other.cols_ = 0;
}

Matrix& Matrix::operator=(Matrix&& other) noexcept {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  data_ = std::move(other.data_);
  other.rows_ = 0;
  other.cols_ = 0;
  return *this;
}

Matrix::~Matrix() = default;

void Matrix::Fill(float value) {
  float* p = data_.data();
  util::ParallelFor(0, size(), kElemGrain, [p, value](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) p[i] = value;
  });
}

void Matrix::FillNormal(util::Rng& rng, float stddev) {
  // Sequential: draws must consume the RNG stream in index order.
  for (float& v : data_) v = static_cast<float>(rng.Normal(0.0, stddev));
}

void Matrix::FillUniform(util::Rng& rng, float lo, float hi) {
  for (float& v : data_) v = static_cast<float>(rng.Uniform(lo, hi));
}

float Matrix::Norm() const {
  const float* p = data_.data();
  const kernels::KernelOps& ops = kernels::Active();
  double acc =
      util::ParallelSum(0, size(), kElemGrain, [p, &ops](int64_t b, int64_t e) {
        return ops.sumsq(p + b, e - b);
      });
  return static_cast<float>(std::sqrt(acc));
}

float Matrix::Sum() const {
  const float* p = data_.data();
  const kernels::KernelOps& ops = kernels::Active();
  double acc =
      util::ParallelSum(0, size(), kElemGrain, [p, &ops](int64_t b, int64_t e) {
        return ops.sum(p + b, e - b);
      });
  return static_cast<float>(acc);
}

void Matrix::AddInPlace(const Matrix& other) {
  CPGAN_CHECK(SameShape(other));
  float* dst = data_.data();
  const float* src = other.data_.data();
  const kernels::KernelOps& ops = kernels::Active();
  util::ParallelFor(0, size(), kElemGrain,
                    [dst, src, &ops](int64_t b, int64_t e) {
                      ops.add(src + b, dst + b, e - b);
                    });
}

void Matrix::Axpy(float alpha, const Matrix& other) {
  CPGAN_CHECK(SameShape(other));
  float* dst = data_.data();
  const float* src = other.data_.data();
  const kernels::KernelOps& ops = kernels::Active();
  util::ParallelFor(0, size(), kElemGrain,
                    [dst, src, alpha, &ops](int64_t b, int64_t e) {
                      ops.axpy(alpha, src + b, dst + b, e - b);
                    });
}

void Matrix::Scale(float alpha) {
  float* p = data_.data();
  const kernels::KernelOps& ops = kernels::Active();
  util::ParallelFor(0, size(), kElemGrain,
                    [p, alpha, &ops](int64_t b, int64_t e) {
                      ops.scale(alpha, p + b, e - b);
                    });
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  // Parallel over output row bands (= source column bands): each chunk
  // writes a disjoint band of `out`. Within a band, each strip of
  // kTransposeBlock columns is copied down the source in square blocks, so
  // only that many destination rows are written at a time: at a
  // power-of-two stride, the 64 rows of a whole band share a few L1 sets.
  util::ParallelFor(0, cols_, kTransposeTileCols, [&](int64_t c0, int64_t c1) {
    for (int64_t s0 = c0; s0 < c1; s0 += kTransposeBlock) {
      const int64_t s1 = std::min<int64_t>(c1, s0 + kTransposeBlock);
      for (int r0 = 0; r0 < rows_; r0 += kTransposeBlock) {
        const int r1 = std::min(rows_, r0 + kTransposeBlock);
        for (int64_t c = s0; c < s1; ++c) {
          float* dst = out.Row(static_cast<int>(c));
          for (int r = r0; r < r1; ++r) dst[r] = Row(r)[c];
        }
      }
    }
  });
  return out;
}

Matrix Matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  MatmulAccum(a, b, out);
  return out;
}

void MatmulAccum(const Matrix& a, const Matrix& b, Matrix& out) {
  CPGAN_CHECK_EQ(a.cols(), b.rows());
  CPGAN_CHECK_EQ(out.rows(), a.rows());
  CPGAN_CHECK_EQ(out.cols(), b.cols());
  const int n = a.rows();
  const int k = a.cols();
  const int m = b.cols();
  if (n == 0 || k == 0 || m == 0) return;
  const int64_t flops = static_cast<int64_t>(n) * k * m;
  if (flops < kSerialMatmulFlops) {
    MatmulSerialSmall(a, b, out);
    return;
  }
  // Spans only on the blocked path so small products stay overhead-free.
  CPGAN_TRACE_SPAN("tensor/matmul");
  CPGAN_GAUGE_SET("kernels.matmul_tile_cols", kTileCols);
  const kernels::KernelOps& ops = kernels::Active();
  const PackedB packed = PackB(b);
  util::ParallelFor(0, n, kTileRows, [&](int64_t i0, int64_t i1) {
    MatmulPanel(a, packed, out, ops, i0, i1);
  });
}

Matrix MatmulTN(const Matrix& a, const Matrix& b) {
  CPGAN_CHECK_EQ(a.rows(), b.rows());
  // A^T is materialized (parallel blocked transpose) so the product takes
  // Matmul's path at every size; the transpose is O(nk) against the O(nkm)
  // product. The span, like Matmul's, marks only the blocked path.
  const int64_t flops = static_cast<int64_t>(a.rows()) * a.cols() * b.cols();
  if (flops < kSerialMatmulFlops) return Matmul(a.Transposed(), b);
  CPGAN_TRACE_SPAN("tensor/matmul_tn");
  return Matmul(a.Transposed(), b);
}

Matrix MatmulNT(const Matrix& a, const Matrix& b) {
  CPGAN_CHECK_EQ(a.cols(), b.cols());
  Matrix out(a.rows(), b.rows());
  const int n = a.rows();
  const int k = a.cols();
  const int m = b.rows();
  if (n == 0 || k == 0 || m == 0) return out;
  // Dot-product form: each output row depends only on one row of A and all
  // of B, so row panels parallelize with no write sharing. Per panel, each
  // group of four B rows is widened to double into the task's buffer and
  // every A row of the panel runs against it. The backend's dot4 sums each
  // element in its fixed one-row order, so neither the panels nor the
  // groups move a bit.
  CPGAN_TRACE_SPAN("tensor/matmul_nt");
  const kernels::KernelOps& ops = kernels::Active();
  util::ParallelFor(0, n, kTileRows, [&](int64_t i0, int64_t i1) {
    std::vector<double> group(static_cast<size_t>(kDotRows) * k);
    double dots[kDotRows];
    for (int j0 = 0; j0 < m; j0 += kDotRows) {
      const int rows = std::min(kDotRows, m - j0);
      for (int r = 0; r < rows; ++r) {
        const float* brow = b.Row(j0 + r);
        std::copy(brow, brow + k, group.begin() + static_cast<int64_t>(r) * k);
      }
      for (int64_t i = i0; i < i1; ++i) {
        ops.dot4(a.Row(static_cast<int>(i)), group.data(), k, rows, dots);
        float* orow = out.Row(static_cast<int>(i)) + j0;
        for (int r = 0; r < rows; ++r) orow[r] = static_cast<float>(dots[r]);
      }
    }
  });
  return out;
}

}  // namespace cpgan::tensor
