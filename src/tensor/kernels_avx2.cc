// AVX2+FMA kernel backend. This translation unit is compiled with
// -mavx2 -mfma (src/CMakeLists.txt) and is reached only through the
// KernelOps table after kernels.cc has verified CPUID support — nothing
// here may be called directly from generic code.
//
// Numeric identity: within this backend every result is a fixed function of
// the inputs — the macro-kernel computes each output element as one FMA
// chain in ascending k order, identical across the 32-wide, 8-wide and
// scalar-tail paths (std::fmaf is the same fused operation as a vector FMA
// lane). The j-tile width and the thread count therefore never change a
// bit; only the backend choice does (FMA contracts the multiply-add that
// the scalar backend rounds twice).

#if defined(__x86_64__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "tensor/kernels_backends.h"

namespace cpgan::tensor::kernels::internal {

namespace {

void Avx2MatmulTile(const float* a, const float* tile, float* out, int kb,
                    int jb) {
  const int64_t stride = jb;
  int j = 0;
  // 4 accumulator registers (32 output columns) held across the whole
  // k-tile: the dominant case for 128-wide tiles, one load/store of C per
  // 32x64 block instead of one per k step.
  for (; j + 32 <= jb; j += 32) {
    float* o = out + j;
    __m256 c0 = _mm256_loadu_ps(o);
    __m256 c1 = _mm256_loadu_ps(o + 8);
    __m256 c2 = _mm256_loadu_ps(o + 16);
    __m256 c3 = _mm256_loadu_ps(o + 24);
    const float* t = tile + j;
    for (int r = 0; r < kb; ++r, t += stride) {
      const __m256 av = _mm256_set1_ps(a[r]);
      c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(t), c0);
      c1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(t + 8), c1);
      c2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(t + 16), c2);
      c3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(t + 24), c3);
    }
    _mm256_storeu_ps(o, c0);
    _mm256_storeu_ps(o + 8, c1);
    _mm256_storeu_ps(o + 16, c2);
    _mm256_storeu_ps(o + 24, c3);
  }
  for (; j + 8 <= jb; j += 8) {
    float* o = out + j;
    __m256 c0 = _mm256_loadu_ps(o);
    const float* t = tile + j;
    for (int r = 0; r < kb; ++r, t += stride) {
      c0 = _mm256_fmadd_ps(_mm256_set1_ps(a[r]), _mm256_loadu_ps(t), c0);
    }
    _mm256_storeu_ps(o, c0);
  }
  for (; j < jb; ++j) {
    float acc = out[j];
    const float* t = tile + j;
    for (int r = 0; r < kb; ++r, t += stride) {
      acc = std::fmaf(a[r], *t, acc);
    }
    out[j] = acc;
  }
}

void Avx2Axpy(float alpha, const float* x, float* y, int64_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
    _mm256_storeu_ps(
        y + i + 8, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i + 8),
                                   _mm256_loadu_ps(y + i + 8)));
  }
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fmaf(alpha, x[i], y[i]);
}

void Avx2Add(const float* x, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void Avx2Scale(float alpha, float* y, int64_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(av, _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] *= alpha;
}

/// Sums a 4-lane double accumulator in fixed lane order (0..3) so the
/// reduction is a pure function of the lanes, not of any shuffle tree.
double HorizontalSum(__m256d v) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, v);
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

/// Per row, lanes 0-3 and 4-7 of each 8-float step feed their own FMA
/// chain; the chains are added lanewise and reduced in HorizontalSum's lane
/// order, then the tail is added in index order. The four rows share A's
/// conversion, and one 4x4 transpose of their lane vectors reduces all four
/// at once: lane r of the transposed sum is ((l0+l1)+l2)+l3 of row r, bit
/// for bit.
void Avx2Dot4(const float* a, const double* b, int64_t n, int rows,
              double* out) {
  // Rows past `rows` repeat the last one; their sums are dropped.
  const double* b0 = b;
  const double* b1 = b + std::min(1, rows - 1) * n;
  const double* b2 = b + std::min(2, rows - 1) * n;
  const double* b3 = b + std::min(3, rows - 1) * n;
  __m256d lo0 = _mm256_setzero_pd(), hi0 = _mm256_setzero_pd();
  __m256d lo1 = _mm256_setzero_pd(), hi1 = _mm256_setzero_pd();
  __m256d lo2 = _mm256_setzero_pd(), hi2 = _mm256_setzero_pd();
  __m256d lo3 = _mm256_setzero_pd(), hi3 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 av = _mm256_loadu_ps(a + i);
    const __m256d alo = _mm256_cvtps_pd(_mm256_castps256_ps128(av));
    const __m256d ahi = _mm256_cvtps_pd(_mm256_extractf128_ps(av, 1));
    lo0 = _mm256_fmadd_pd(alo, _mm256_loadu_pd(b0 + i), lo0);
    hi0 = _mm256_fmadd_pd(ahi, _mm256_loadu_pd(b0 + i + 4), hi0);
    lo1 = _mm256_fmadd_pd(alo, _mm256_loadu_pd(b1 + i), lo1);
    hi1 = _mm256_fmadd_pd(ahi, _mm256_loadu_pd(b1 + i + 4), hi1);
    lo2 = _mm256_fmadd_pd(alo, _mm256_loadu_pd(b2 + i), lo2);
    hi2 = _mm256_fmadd_pd(ahi, _mm256_loadu_pd(b2 + i + 4), hi2);
    lo3 = _mm256_fmadd_pd(alo, _mm256_loadu_pd(b3 + i), lo3);
    hi3 = _mm256_fmadd_pd(ahi, _mm256_loadu_pd(b3 + i + 4), hi3);
  }
  const __m256d s0 = _mm256_add_pd(lo0, hi0);
  const __m256d s1 = _mm256_add_pd(lo1, hi1);
  const __m256d s2 = _mm256_add_pd(lo2, hi2);
  const __m256d s3 = _mm256_add_pd(lo3, hi3);
  // t01_even = (s0[0], s1[0], s0[2], s1[2]), t01_odd = (s0[1], s1[1], ...).
  const __m256d t01_even = _mm256_unpacklo_pd(s0, s1);
  const __m256d t01_odd = _mm256_unpackhi_pd(s0, s1);
  const __m256d t23_even = _mm256_unpacklo_pd(s2, s3);
  const __m256d t23_odd = _mm256_unpackhi_pd(s2, s3);
  // lane_q = (s0[q], s1[q], s2[q], s3[q]).
  const __m256d lane0 = _mm256_permute2f128_pd(t01_even, t23_even, 0x20);
  const __m256d lane1 = _mm256_permute2f128_pd(t01_odd, t23_odd, 0x20);
  const __m256d lane2 = _mm256_permute2f128_pd(t01_even, t23_even, 0x31);
  const __m256d lane3 = _mm256_permute2f128_pd(t01_odd, t23_odd, 0x31);
  alignas(32) double acc[4];
  _mm256_store_pd(acc, _mm256_add_pd(
                           _mm256_add_pd(_mm256_add_pd(lane0, lane1), lane2),
                           lane3));
  for (; i < n; ++i) {
    const double ai = a[i];
    acc[0] += ai * b0[i];
    acc[1] += ai * b1[i];
    acc[2] += ai * b2[i];
    acc[3] += ai * b3[i];
  }
  for (int r = 0; r < rows; ++r) out[r] = acc[r];
}

double Avx2Sum(const float* x, int64_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    acc0 = _mm256_add_pd(acc0,
                         _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    acc1 = _mm256_add_pd(acc1,
                         _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  double acc = HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) acc += x[i];
  return acc;
}

double Avx2SumSq(const float* x, int64_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    acc0 = _mm256_fmadd_pd(lo, lo, acc0);
    acc1 = _mm256_fmadd_pd(hi, hi, acc1);
  }
  double acc = HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) acc += static_cast<double>(x[i]) * x[i];
  return acc;
}

}  // namespace

const KernelOps* Avx2OpsIfBuilt() {
  static const KernelOps ops = {
      "avx2",    Avx2MatmulTile, Avx2Axpy, Avx2Add,
      Avx2Scale, Avx2Dot4,       Avx2Sum,  Avx2SumSq,
  };
  return &ops;
}

}  // namespace cpgan::tensor::kernels::internal

#else  // !defined(__x86_64__)

#include "tensor/kernels_backends.h"

namespace cpgan::tensor::kernels::internal {

const KernelOps* Avx2OpsIfBuilt() { return nullptr; }

}  // namespace cpgan::tensor::kernels::internal

#endif
