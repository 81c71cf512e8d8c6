#ifndef CPGAN_TENSOR_KERNELS_H_
#define CPGAN_TENSOR_KERNELS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cpgan::tensor::kernels {

/// \file
/// Kernel backend layer: one definition per hot primitive, multiple
/// implementations selected at runtime (docs/INTERNALS.md, "Kernel
/// backends"). Structured after the functor-per-op idiom of TF's
/// softplus_op.h / Dali's device-parameterized tensor functions: the blocked
/// matmul, SpMM, elementwise and reduction kernels in matrix.cc / sparse.cc
/// call through a KernelOps function-pointer table instead of open-coded
/// loops, and the table is chosen once per process.
///
/// Backends:
///   scalar — the PR-2 loops, verbatim. Always available; the reference.
///   avx2   — 8-wide FMA micro-kernels (x86-64 with AVX2+FMA only; the TU is
///            compiled with -mavx2 -mfma and its code is reached exclusively
///            through this table after a CPUID check).
///
/// Selection order (first match wins), performed once on first Active()
/// call: CPGAN_KERNEL_BACKEND env var (or the CLI's --kernel-backend, which
/// calls SetBackend before any kernel runs) > CPUID detection (avx2 when
/// supported, else scalar). An env/flag naming a backend that is not
/// available on this machine logs a warning and falls back to
/// auto-detection; "scalar" always honors the request, even on AVX2
/// hardware.
///
/// Determinism contract (docs/INTERNALS.md, "Determinism"): results are
/// bitwise identical across thread counts *within* a backend — the PR-2
/// guarantee, now stated per-backend. Different backends may round
/// differently (FMA contraction, vector-lane summation); every backend is
/// validated against the double-accumulator references at tile-boundary
/// shapes by tests/numeric/ (ctest -L kernels), and the coverage registry in
/// src/testing/kernel_coverage.h fails that suite when a compiled backend
/// ships an op without a differential check.

/// One backend: a name plus an implementation of every kernel primitive.
/// All pointers are non-null in a registered backend.
struct KernelOps {
  const char* name;

  /// Matmul macro-kernel: out[0..jb) += sum_{r<kb} a[r] * tile[r*jb + 0..jb)
  /// for one output row against one packed B tile (tile rows are stored
  /// contiguously with stride jb). Per output element the accumulation runs
  /// in ascending r, so the result does not depend on the j-tile width
  /// (kTileCols in matrix.cc): no width perturbs a single bit.
  void (*matmul_tile)(const float* a, const float* tile, float* out, int kb,
                      int jb);

  /// y[0..n) += alpha * x[0..n). The SpMM row kernel: one call per sparse
  /// entry, streaming the dense row.
  void (*axpy)(float alpha, const float* x, float* y, int64_t n);

  /// y[0..n) += x[0..n).
  void (*add)(const float* x, float* y, int64_t n);

  /// y[0..n) *= alpha.
  void (*scale)(float alpha, float* y, int64_t n);

  /// out[r] = sum_{i<n} a[i] * b[r*n + i] for r < rows, 1 <= rows <= 4:
  /// one row of A against up to four rows of B already widened to double,
  /// accumulated in double (MatmulNT's inner kernel). Every output is
  /// summed in the backend's fixed one-row order, whatever `rows` is:
  ///   scalar — sequentially in i;
  ///   avx2   — two 4-lane FMA chains over lanes 0-3 and 4-7 of each
  ///            8-float step, added lanewise and reduced ((l0+l1)+l2)+l3,
  ///            then the tail in index order.
  /// A float product is exact in double, so widening B before the call
  /// changes no bit against converting it in the loop (pinned by
  /// KernelDiff.MatmulNTKeepsDotOrder).
  void (*dot4)(const float* a, const double* b, int64_t n, int rows,
               double* out);

  /// sum_{i<n} x[i], accumulated in double.
  double (*sum)(const float* x, int64_t n);

  /// sum_{i<n} x[i]^2, accumulated in double (Frobenius norm).
  double (*sumsq)(const float* x, int64_t n);
};

/// The scalar backend (always available).
const KernelOps& Scalar();

/// The avx2 backend, or nullptr when the build target or the running CPU
/// lacks AVX2+FMA.
const KernelOps* Avx2();

/// Every backend usable on this machine, scalar first.
std::vector<const KernelOps*> AvailableBackends();

/// Canonical op-name list, in KernelOps declaration order. The differential
/// coverage registry requires a check for every (backend, op) pair.
const std::vector<std::string>& OpNames();

/// The active backend. First call performs the env/CPUID selection above,
/// publishes the choice to the obs gauges (kernels.backend.<name> = 1) and
/// logs it; later calls are a single acquire load.
const KernelOps& Active();

/// Forces the active backend by name ("scalar", "avx2"). Returns false and
/// leaves the selection unchanged when no backend of that name is available
/// on this machine; `error` (optional) receives the reason. Not thread-safe
/// against concurrently running kernels — call it from the control thread
/// between parallel regions (startup, CLI parsing, tests).
bool SetBackend(std::string_view name, std::string* error = nullptr);

/// Re-runs the selection (env var, then CPUID) as if the process had just
/// started. For tests that set CPGAN_KERNEL_BACKEND after startup.
void ReselectFromEnvironment();

/// Names of every registered backend (available on this machine), for help
/// text and error messages.
std::string AvailableBackendNames();

}  // namespace cpgan::tensor::kernels

#endif  // CPGAN_TENSOR_KERNELS_H_
