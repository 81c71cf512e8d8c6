// Scalar kernel backend: the PR-2 loops, verbatim. This is both the
// portable fallback and the semantic reference — the golden/regression
// suites pin numbers produced by these loops, and every other backend is
// differential-tested against the same double-accumulator references these
// are (tests/numeric/, ctest -L kernels).

#include "tensor/kernels_backends.h"

namespace cpgan::tensor::kernels::internal {

namespace {

void ScalarMatmulTile(const float* a, const float* tile, float* out, int kb,
                      int jb) {
  for (int r = 0; r < kb; ++r) {
    const float aik = a[r];
    // The zero-skip is part of the scalar backend's numeric identity (it
    // preserves signed zeros in `out` that += 0.0f * x would flush).
    if (aik == 0.0f) continue;
    const float* trow = tile + static_cast<int64_t>(r) * jb;
    for (int c = 0; c < jb; ++c) out[c] += aik * trow[c];
  }
}

void ScalarAxpy(float alpha, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScalarAdd(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += x[i];
}

void ScalarScale(float alpha, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] *= alpha;
}

void ScalarDot4(const float* a, const double* b, int64_t n, int rows,
                double* out) {
  for (int r = 0; r < rows; ++r) {
    const double* brow = b + r * n;
    double acc = 0.0;
    for (int64_t i = 0; i < n; ++i) acc += static_cast<double>(a[i]) * brow[i];
    out[r] = acc;
  }
}

double ScalarSum(const float* x, int64_t n) {
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

double ScalarSumSq(const float* x, int64_t n) {
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    acc += static_cast<double>(x[i]) * x[i];
  }
  return acc;
}

}  // namespace

const KernelOps& ScalarOps() {
  static const KernelOps ops = {
      "scalar",    ScalarMatmulTile, ScalarAxpy,  ScalarAdd,
      ScalarScale, ScalarDot4,       ScalarSum,   ScalarSumSq,
  };
  return ops;
}

}  // namespace cpgan::tensor::kernels::internal
