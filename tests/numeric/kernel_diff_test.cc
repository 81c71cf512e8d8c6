// Kernel differential tests: every optimized tensor kernel, under EVERY
// compiled kernel backend (scalar, and avx2 where the hardware has it),
// against the naive double-accumulator references in
// src/testing/diff_harness.h, on shapes that straddle the serial/blocked
// flop cutoff and the 64-wide tile boundaries (63/64/65), and on products
// more than two j-tiles wide, at 1, 2, and 8 threads. Two contracts are
// enforced:
//   1. Accuracy: the optimized float result stays within a small relative
//      tolerance of the double reference (summation order differs, bitwise
//      equality is not expected). The tolerance is shared by all backends —
//      FMA contraction in avx2 changes results only below it.
//   2. Determinism: within a backend, the result at any thread count is
//      BITWISE identical to the 1-thread result (the thread-pool blocking
//      is static and per-element accumulation order is panel-independent).
// MatmulNT is additionally pinned bit for bit to a plain-double replay of
// each backend's dot-kernel order (MatmulNTKeepsDotOrder), MatmulTN to
// Matmul of the transpose, and Transposed to the naive reference, because
// the trained models depend on them exactly. Every (backend, op) pair checked here is recorded in
// KernelCheckRegistry; kernel_coverage.cc fails this bundle if a backend
// ships an op the sweep missed.

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/kernels.h"
#include "tensor/matrix.h"
#include "tensor/sparse.h"
#include "testing/diff_harness.h"
#include "testing/kernel_coverage.h"

namespace cpgan::testing {
namespace {

namespace t = cpgan::tensor;

/// Relative tolerance for float kernels vs the double reference. Worst case
/// here is a 127-term dot product of values in [-1, 1]; float error grows
/// like sqrt(k) * eps with random rounding, so 1e-4 has ~40x headroom.
constexpr double kTol = 1e-4;

const std::vector<int>& Threads() {
  static const std::vector<int> counts = {1, 2, 8};
  return counts;
}

/// Names of every backend compiled into this binary and usable on this
/// machine. The scalar backend is always present, so the sweep is never
/// vacuous on pre-AVX2 hardware.
std::vector<std::string> BackendNames() {
  std::vector<std::string> names;
  for (const t::kernels::KernelOps* ops : t::kernels::AvailableBackends()) {
    names.push_back(ops->name);
  }
  return names;
}

void MarkCovered(const std::string& backend, const std::string& op) {
  KernelCheckRegistry::Global().MarkCovered(backend, op);
}

/// (n, k, m) triples mixing below-cutoff serial shapes with blocked shapes
/// at tile boundaries. kSerialMatmulFlops = 1 << 15, so 16x16x16 (8K flops)
/// stays serial while 65x65x65 (~549K) takes the blocked path. The last two
/// are more than two 128-wide j-tiles wide, so B is packed into a second and
/// a third j-tile; their last tiles are 44 columns (the avx2 32-wide, 8-wide
/// and scalar paths in turn) and 1 column (the scalar path alone).
std::vector<std::array<int, 3>> MatmulShapes() {
  std::vector<std::array<int, 3>> shapes = {
      {1, 1, 1},    // degenerate
      {5, 7, 3},    // tiny serial
      {1, 128, 64},  // single row, wide K
      {64, 1, 64},   // K = 1
      {16, 16, 16},  // just below the serial cutoff
      {63, 64, 65},  // straddles every tile boundary at once
      {64, 64, 64},  // exact tiles
      {65, 63, 64},
      {127, 65, 63},  // two tiles + remainder in each dim
      {130, 70, 300},  // three j-tiles, 32+8+4-column tail
      {65, 33, 257},   // three j-tiles, 1-column tail
  };
  return shapes;
}

/// Plants exact 0.0f and -0.0f in `a`, entries the serial product skips.
void PlantZeros(t::Matrix& a) {
  for (int64_t i = 0; i < a.size(); i += 5) {
    a.data()[i] = i % 2 == 0 ? 0.0f : -0.0f;
  }
}

TEST(KernelDiff, Matmul) {
  for (const std::string& backend : BackendNames()) {
    ScopedBackend backend_scope(backend);
    MarkCovered(backend, "matmul_tile");
    for (auto [n, k, m] : MatmulShapes()) {
      t::Matrix a = RandomMatrix(n, k, 1000 + n * 31 + k);
      t::Matrix b = RandomMatrix(k, m, 2000 + k * 31 + m);
      t::Matrix want = RefMatmul(a, b);

      t::Matrix first;
      for (int threads : Threads()) {
        ScopedThreads scope(threads);
        t::Matrix got = t::Matmul(a, b);
        DiffStats stats = Compare(got, want);
        EXPECT_LT(stats.max_rel_diff, kTol)
            << backend << " Matmul " << n << "x" << k << "x" << m << " @"
            << threads << " threads: " << stats.Summary();
        if (threads == Threads().front()) {
          first = got;
        } else {
          EXPECT_TRUE(BitwiseEqual(got, first))
              << backend << " Matmul " << n << "x" << k << "x" << m
              << " differs bitwise between 1 and " << threads << " threads";
        }
      }
    }
  }
}

TEST(KernelDiff, MatmulTN) {
  for (const std::string& backend : BackendNames()) {
    ScopedBackend backend_scope(backend);
    for (auto [n, k, m] : MatmulShapes()) {
      // A is k x n, result is A^T B = n x m. MatmulTN must be exactly the
      // plain product of the transpose, at every size.
      t::Matrix a = RandomMatrix(k, n, 3000 + n * 31 + k);
      PlantZeros(a);
      t::Matrix b = RandomMatrix(k, m, 4000 + k * 31 + m);
      t::Matrix want = RefMatmulTN(a, b);

      t::Matrix first;
      for (int threads : Threads()) {
        ScopedThreads scope(threads);
        t::Matrix got = t::MatmulTN(a, b);
        DiffStats stats = Compare(got, want);
        EXPECT_LT(stats.max_rel_diff, kTol)
            << backend << " MatmulTN " << n << "x" << k << "x" << m << " @"
            << threads << " threads: " << stats.Summary();
        EXPECT_TRUE(BitwiseEqual(got, t::Matmul(a.Transposed(), b)))
            << backend << " MatmulTN " << n << "x" << k << "x" << m << " @"
            << threads << " threads differs from Matmul of the transpose";
        if (threads == Threads().front()) {
          first = got;
        } else {
          EXPECT_TRUE(BitwiseEqual(got, first))
              << backend << " MatmulTN " << n << "x" << k << "x" << m
              << " differs bitwise between 1 and " << threads << " threads";
        }
      }
    }
  }
}

TEST(KernelDiff, MatmulNT) {
  for (const std::string& backend : BackendNames()) {
    ScopedBackend backend_scope(backend);
    for (auto [n, k, m] : MatmulShapes()) {
      // B is m x k, result is A B^T = n x m.
      t::Matrix a = RandomMatrix(n, k, 5000 + n * 31 + k);
      t::Matrix b = RandomMatrix(m, k, 6000 + k * 31 + m);
      t::Matrix want = RefMatmulNT(a, b);

      t::Matrix first;
      for (int threads : Threads()) {
        ScopedThreads scope(threads);
        t::Matrix got = t::MatmulNT(a, b);
        DiffStats stats = Compare(got, want);
        EXPECT_LT(stats.max_rel_diff, kTol)
            << backend << " MatmulNT " << n << "x" << k << "x" << m << " @"
            << threads << " threads: " << stats.Summary();
        if (threads == Threads().front()) {
          first = got;
        } else {
          EXPECT_TRUE(BitwiseEqual(got, first))
              << backend << " MatmulNT " << n << "x" << k << "x" << m
              << " differs bitwise between 1 and " << threads << " threads";
        }
      }
    }
  }
}

/// One entry of A·Bᵀ summed in the order the named backend's MatmulNT sums
/// it, in plain double. A float product is exact in double, so fusing the
/// multiply-add or not never changes a bit of these sums.
///   scalar: one sequential sum over i.
///   avx2:   two 4-lane chains (lanes 0-3 and 4-7 of each 8-float step),
///           added lanewise, reduced ((l0+l1)+l2)+l3, then the tail in
///           index order.
double OrderedDot(const std::string& backend, const float* a, const float* b,
                  int k) {
  double acc = 0.0;
  int i = 0;
  if (backend == "avx2") {
    double lanes[8] = {};
    for (; i + 8 <= k; i += 8) {
      for (int q = 0; q < 8; ++q) {
        lanes[q] += static_cast<double>(a[i + q]) * b[i + q];
      }
    }
    double s[4];
    for (int q = 0; q < 4; ++q) s[q] = lanes[q] + lanes[q + 4];
    acc = ((s[0] + s[1]) + s[2]) + s[3];
  } else {
    EXPECT_EQ(backend, "scalar") << "no order reference for this backend";
  }
  for (; i < k; ++i) acc += static_cast<double>(a[i]) * b[i];
  return acc;
}

/// Makes the double summation order show in MatmulNT's float output. On
/// random inputs two orders of a double sum almost never round to
/// different floats. Here B's columns 1, k/2 and k-1 repeat column 0, and
/// three rows in four of A carry +2^e and -2^e (e in 30..37) in two of
/// those columns: (0, k-1), (0, 1) or (k/2, k-1). The two products cancel
/// exactly, but a partial sum that holds one of them rounds away the low
/// bits of every term it absorbs, so which terms meet it before the
/// cancellation decides the float result.
void MakeOrderVisible(t::Matrix& a, t::Matrix& b) {
  const int k = a.cols();
  if (k < 2) return;
  for (int j = 0; j < b.rows(); ++j) {
    for (int c : {1, k / 2, k - 1}) b.Row(j)[c] = b.Row(j)[0];
  }
  const int pairs[3][2] = {{0, k - 1}, {0, 1}, {k / 2, k - 1}};
  for (int i = 0; i < a.rows(); ++i) {
    if (i % 4 == 3) continue;
    const auto [p, q] = pairs[i % 4];
    if (p == q) continue;
    const float big = std::ldexp(1.0f, 30 + i % 8);
    a.Row(i)[p] = big;
    a.Row(i)[q] = -big;
  }
}

TEST(KernelDiff, MatmulNTKeepsDotOrder) {
  // Pins each backend's MatmulNT bit for bit to the summation order of its
  // one-row dot kernel, so a faster form of the kernel cannot move a single
  // trained weight. m covers four-row groups and their remainders, k the
  // 8-lane edges, n the 64-row panel edges.
  for (const std::string& backend : BackendNames()) {
    ScopedBackend backend_scope(backend);
    MarkCovered(backend, "dot4");
    for (int m = 1; m <= 9; ++m) {
      for (int k : {1, 7, 8, 9, 15, 16, 17, 64, 65}) {
        for (int n : {1, 63, 64, 65}) {
          t::Matrix a = RandomMatrix(n, k, 10000 + n * 131 + k);
          t::Matrix b = RandomMatrix(m, k, 11000 + m * 131 + k);
          MakeOrderVisible(a, b);
          t::Matrix want(n, m);
          for (int i = 0; i < n; ++i) {
            for (int j = 0; j < m; ++j) {
              want.Row(i)[j] = static_cast<float>(
                  OrderedDot(backend, a.Row(i), b.Row(j), k));
            }
          }
          for (int threads : Threads()) {
            ScopedThreads scope(threads);
            EXPECT_TRUE(BitwiseEqual(t::MatmulNT(a, b), want))
                << backend << " MatmulNT " << n << "x" << k << "x" << m
                << " @" << threads << " threads leaves the dot order";
          }
        }
      }
    }
  }
}

TEST(KernelDiff, TransposedIsExact) {
  // Transposed is pure data movement: every shape, including the
  // power-of-two strides the training model transposes at, must equal the
  // naive reference bit for bit at any thread count.
  constexpr int kN = 300;
  const std::array<std::array<int, 2>, 7> shapes = {{
      {256, 256}, {1024, 64}, {64, 1024}, {9, 17}, {1, kN}, {kN, 1}, {0, kN},
  }};
  for (auto [rows, cols] : shapes) {
    t::Matrix m = RandomMatrix(rows, cols, 12000 + rows * 131 + cols);
    t::Matrix want = RefTranspose(m);
    for (int threads : Threads()) {
      ScopedThreads scope(threads);
      EXPECT_TRUE(BitwiseEqual(m.Transposed(), want))
          << "Transposed " << rows << "x" << cols << " @" << threads
          << " threads";
    }
  }
}

TEST(KernelDiff, MatmulAccum) {
  for (const std::string& backend : BackendNames()) {
    ScopedBackend backend_scope(backend);
    for (auto [n, k, m] : MatmulShapes()) {
      t::Matrix a = RandomMatrix(n, k, 6500 + n);
      t::Matrix b = RandomMatrix(k, m, 6600 + m);
      t::Matrix base = RandomMatrix(n, m, 6700 + n + m);

      // want = base + A*B, double accumulation for the product part.
      t::Matrix want = RefMatmul(a, b);
      for (int64_t i = 0; i < want.size(); ++i) {
        want.data()[i] += base.data()[i];
      }

      t::Matrix first;
      for (int threads : Threads()) {
        ScopedThreads scope(threads);
        t::Matrix got = base;
        t::MatmulAccum(a, b, got);
        DiffStats stats = Compare(got, want);
        EXPECT_LT(stats.max_rel_diff, kTol)
            << backend << " MatmulAccum " << n << "x" << k << "x" << m << " @"
            << threads << " threads: " << stats.Summary();
        if (threads == Threads().front()) {
          first = got;
        } else {
          EXPECT_TRUE(BitwiseEqual(got, first))
              << backend << " MatmulAccum " << n << "x" << k << "x" << m
              << " differs bitwise between 1 and " << threads << " threads";
        }
      }
    }
  }
}

TEST(KernelDiff, Spmm) {
  struct Case {
    int rows, cols, feat;
    double density;
  };
  const std::vector<Case> cases = {
      {1, 1, 1, 1.0},   {7, 5, 3, 0.4},   {63, 64, 65, 0.1},
      {64, 64, 64, 0.05}, {127, 65, 63, 0.02}, {50, 50, 8, 0.0},  // all-zero
  };
  for (const std::string& backend : BackendNames()) {
    ScopedBackend backend_scope(backend);
    MarkCovered(backend, "axpy");  // SpMM rows accumulate via ops.axpy
    for (const Case& c : cases) {
      t::SparseMatrix s = RandomSparse(c.rows, c.cols, c.density,
                                       7000 + c.rows * 131 + c.cols);
      t::Matrix d = RandomMatrix(c.cols, c.feat, 8000 + c.feat);
      t::Matrix want = RefSpmm(s, d);
      t::Matrix want_t =
          RefSpmmTransposed(s, RandomMatrix(c.rows, c.feat, 9000));
      t::Matrix d_t = RandomMatrix(c.rows, c.feat, 9000);

      t::Matrix first, first_t;
      for (int threads : Threads()) {
        ScopedThreads scope(threads);
        t::Matrix got = s.Multiply(d);
        DiffStats stats = Compare(got, want);
        EXPECT_LT(stats.max_rel_diff, kTol)
            << backend << " Spmm " << c.rows << "x" << c.cols
            << " nnz=" << s.nnz() << " @" << threads
            << " threads: " << stats.Summary();

        t::Matrix got_t = s.MultiplyTransposed(d_t);
        DiffStats stats_t = Compare(got_t, want_t);
        EXPECT_LT(stats_t.max_rel_diff, kTol)
            << backend << " SpmmT " << c.rows << "x" << c.cols
            << " nnz=" << s.nnz() << " @" << threads
            << " threads: " << stats_t.Summary();

        if (threads == Threads().front()) {
          first = got;
          first_t = got_t;
        } else {
          EXPECT_TRUE(BitwiseEqual(got, first))
              << backend << " Spmm differs bitwise between 1 and " << threads
              << " threads";
          EXPECT_TRUE(BitwiseEqual(got_t, first_t))
              << backend << " SpmmT differs bitwise between 1 and " << threads
              << " threads";
        }
      }
    }
  }
}

TEST(KernelDiff, SparseTransposeAgreesWithDense) {
  t::SparseMatrix s = RandomSparse(65, 63, 0.1, 9100);
  t::Matrix dense_t = RefTranspose(s.ToDense());
  t::Matrix got = s.Transposed().ToDense();
  DiffStats stats = Compare(got, dense_t);
  EXPECT_EQ(stats.max_abs_diff, 0.0) << stats.Summary();  // pure reshuffle
}

TEST(KernelDiff, Reductions) {
  // Matrix::Sum / Norm / Transposed against serial double-accumulator
  // references, across the boundary dims, per backend.
  for (const std::string& backend : BackendNames()) {
    ScopedBackend backend_scope(backend);
    MarkCovered(backend, "sum");
    MarkCovered(backend, "sumsq");
    for (int rows : BoundaryDims()) {
      for (int cols : {1, 64, 65}) {
        t::Matrix m = RandomMatrix(rows, cols, 9200 + rows * 7 + cols);

        double want_sum = RefSum(m);
        double want_norm = RefFrobeniusNorm(m);

        float first_sum = 0.0f, first_norm = 0.0f;
        for (int threads : Threads()) {
          ScopedThreads scope(threads);
          float got_sum = m.Sum();
          float got_norm = m.Norm();
          EXPECT_NEAR(got_sum, want_sum,
                      kTol * std::max(1.0, std::abs(want_sum)))
              << backend << " " << rows << "x" << cols << " @" << threads;
          EXPECT_NEAR(got_norm, want_norm, kTol * std::max(1.0, want_norm))
              << backend << " " << rows << "x" << cols << " @" << threads;
          if (threads == Threads().front()) {
            first_sum = got_sum;
            first_norm = got_norm;
          } else {
            EXPECT_EQ(got_sum, first_sum)
                << backend << " Sum not thread-deterministic";
            EXPECT_EQ(got_norm, first_norm)
                << backend << " Norm not thread-deterministic";
          }
        }

        t::Matrix transposed = m.Transposed();
        EXPECT_EQ(Compare(transposed, RefTranspose(m)).max_abs_diff, 0.0);
      }
    }
  }
}

TEST(KernelDiff, InPlaceOps) {
  for (const std::string& backend : BackendNames()) {
    ScopedBackend backend_scope(backend);
    MarkCovered(backend, "add");
    MarkCovered(backend, "axpy");
    MarkCovered(backend, "scale");
    for (int rows : {1, 63, 64, 65}) {
      t::Matrix a = RandomMatrix(rows, 65, 9300 + rows);
      t::Matrix b = RandomMatrix(rows, 65, 9400 + rows);

      t::Matrix add = a;
      add.AddInPlace(b);
      t::Matrix axpy = a;
      axpy.Axpy(-0.5f, b);
      t::Matrix scaled = a;
      scaled.Scale(1.25f);
      for (int64_t i = 0; i < a.size(); ++i) {
        ASSERT_FLOAT_EQ(add.data()[i], a.data()[i] + b.data()[i]) << backend;
        ASSERT_FLOAT_EQ(axpy.data()[i], a.data()[i] - 0.5f * b.data()[i])
            << backend;
        ASSERT_FLOAT_EQ(scaled.data()[i], a.data()[i] * 1.25f) << backend;
      }
    }
  }
}

}  // namespace
}  // namespace cpgan::testing
