#include "tensor/kernels.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "tensor/kernels_backends.h"
#include "util/aligned.h"
#include "util/cpuid.h"
#include "util/logging.h"

namespace cpgan::tensor::kernels {

namespace {

std::mutex g_select_mutex;
std::atomic<const KernelOps*> g_active{nullptr};

std::mutex g_tile_mutex;
std::atomic<int> g_tile_cols{0};

const KernelOps* FindAvailable(std::string_view name) {
  for (const KernelOps* ops : AvailableBackends()) {
    if (name == ops->name) return ops;
  }
  return nullptr;
}

const KernelOps* AutoDetect() {
  if (const KernelOps* avx2 = Avx2()) return avx2;
  return &Scalar();
}

/// Mirrors the selection into the obs gauges: kernels.backend.<name> is 1
/// for the active backend and 0 for every other available one, and
/// kernels.cpu_simd_avx2 records the raw CPUID answer (so a forced-scalar
/// run is distinguishable from a pre-AVX2 machine in a metrics snapshot).
void PublishSelection(const KernelOps& active) {
  if (!obs::MetricsEnabled()) return;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (const KernelOps* ops : AvailableBackends()) {
    registry.FindGauge(std::string("kernels.backend.") + ops->name)
        ->Set(ops == &active ? 1.0 : 0.0);
  }
  registry.FindGauge("kernels.cpu_simd_avx2")
      ->Set(util::CpuSupportsAvx2() ? 1.0 : 0.0);
}

/// Env var > CPUID. An env value naming a backend that is not available on
/// this machine logs a warning and falls back to auto-detection — startup
/// must not fail because a config was written on different hardware.
const KernelOps* SelectFromEnvironment() {
  const char* env = std::getenv("CPGAN_KERNEL_BACKEND");
  if (env != nullptr && *env != '\0') {
    if (const KernelOps* named = FindAvailable(env)) return named;
    CPGAN_LOG(Warning) << "CPGAN_KERNEL_BACKEND='" << env
                       << "' is not available on this machine (available: "
                       << AvailableBackendNames() << "); auto-detecting";
  }
  return AutoDetect();
}

/// Times `ops.matmul_tile` at width `jb` over a synthetic hot tile and
/// returns nanoseconds per multiply-add (lower is better). Serial on the
/// calling thread; the sweep never touches the thread pool.
double TimeTileWidth(const KernelOps& ops, int jb) {
  constexpr int kTileK = 64;  // matches the fixed k-tile in matrix.cc
  util::AlignedFloats a, tile, out;
  a.assign(kTileK, 0.5f);
  tile.assign(static_cast<int64_t>(kTileK) * jb, 0.25f);
  out.assign(jb, 0.0f);
  const int64_t flops_per_call = static_cast<int64_t>(kTileK) * jb;
  const int calls = static_cast<int>((int64_t{1} << 22) / flops_per_call) + 1;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < calls; ++i) {
      ops.matmul_tile(a.data(), tile.data(), out.data(), kTileK, jb);
    }
    const auto end = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(end - start).count() /
        (static_cast<double>(calls) * flops_per_call);
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

/// Sweeps AutotuneCandidates() and returns the fastest width. The choice
/// only moves wall-clock: per-element accumulation order is fixed by the k
/// loop, so every candidate yields bitwise-identical products (pinned by
/// tests/numeric/kernel_backend_test.cc).
int AutotuneTileCols(const KernelOps& ops) {
  int best_width = AutotuneCandidates().front();
  double best_ns = 0.0;
  for (int width : AutotuneCandidates()) {
    const double ns = TimeTileWidth(ops, width);
    if (best_ns == 0.0 || ns < best_ns) {
      best_ns = ns;
      best_width = width;
    }
  }
  CPGAN_LOG(Info) << "kernel autotuner: matmul tile width " << best_width
                  << " (" << best_ns << " ns/flop, backend " << ops.name
                  << ")";
  return best_width;
}

void PublishTileCols(int cols) {
  CPGAN_GAUGE_SET("kernels.matmul_tile_cols", cols);
}

}  // namespace

const KernelOps& Scalar() { return internal::ScalarOps(); }

const KernelOps* Avx2() {
  const KernelOps* ops = internal::Avx2OpsIfBuilt();
  if (ops == nullptr || !util::CpuSupportsAvx2()) return nullptr;
  return ops;
}

std::vector<const KernelOps*> AvailableBackends() {
  std::vector<const KernelOps*> backends = {&Scalar()};
  if (const KernelOps* avx2 = Avx2()) backends.push_back(avx2);
  return backends;
}

const std::vector<std::string>& OpNames() {
  static const std::vector<std::string> names = {
      "matmul_tile", "axpy", "add", "scale", "dot4", "sum", "sumsq",
  };
  return names;
}

std::string AvailableBackendNames() {
  std::string joined;
  for (const KernelOps* ops : AvailableBackends()) {
    if (!joined.empty()) joined += ", ";
    joined += ops->name;
  }
  return joined;
}

const KernelOps& Active() {
  const KernelOps* ops = g_active.load(std::memory_order_acquire);
  if (ops != nullptr) return *ops;
  std::lock_guard<std::mutex> lock(g_select_mutex);
  ops = g_active.load(std::memory_order_relaxed);
  if (ops == nullptr) {
    ops = SelectFromEnvironment();
    g_active.store(ops, std::memory_order_release);
    PublishSelection(*ops);
    CPGAN_LOG(Info) << "kernel backend: " << ops->name
                    << " (cpu simd: " << util::CpuSimdSummary()
                    << "; available: " << AvailableBackendNames() << ")";
  }
  return *ops;
}

bool SetBackend(std::string_view name, std::string* error) {
  const KernelOps* ops = FindAvailable(name);
  if (ops == nullptr) {
    if (error != nullptr) {
      *error = std::string(name) +
               " is not available on this machine (available: " +
               AvailableBackendNames() + ")";
    }
    return false;
  }
  std::lock_guard<std::mutex> lock(g_select_mutex);
  g_active.store(ops, std::memory_order_release);
  PublishSelection(*ops);
  return true;
}

void ReselectFromEnvironment() {
  std::lock_guard<std::mutex> lock(g_select_mutex);
  const KernelOps* ops = SelectFromEnvironment();
  g_active.store(ops, std::memory_order_release);
  PublishSelection(*ops);
}

const std::vector<int>& AutotuneCandidates() {
  static const std::vector<int> candidates = {32, 64, 128, 256};
  return candidates;
}

int MatmulTileCols() {
  int cols = g_tile_cols.load(std::memory_order_acquire);
  if (cols > 0) return cols;
  // Resolve the backend before taking the tile lock (Active() takes the
  // selection lock; holding both in a fixed order avoids any deadlock).
  const KernelOps& ops = Active();
  std::lock_guard<std::mutex> lock(g_tile_mutex);
  cols = g_tile_cols.load(std::memory_order_relaxed);
  if (cols > 0) return cols;
  const char* env = std::getenv("CPGAN_KERNEL_TILE_COLS");
  if (env != nullptr && *env != '\0') {
    const int parsed = std::atoi(env);
    if (parsed > 0 && parsed % 8 == 0) {
      cols = parsed;
    } else {
      CPGAN_LOG(Warning) << "CPGAN_KERNEL_TILE_COLS='" << env
                         << "' is not a positive multiple of 8; autotuning";
    }
  }
  if (cols == 0) cols = AutotuneTileCols(ops);
  g_tile_cols.store(cols, std::memory_order_release);
  PublishTileCols(cols);
  return cols;
}

void SetMatmulTileCols(int cols) {
  std::lock_guard<std::mutex> lock(g_tile_mutex);
  if (cols <= 0) {
    g_tile_cols.store(0, std::memory_order_release);
    return;
  }
  if (cols % 8 != 0) {
    CPGAN_LOG(Warning) << "SetMatmulTileCols(" << cols
                       << ") ignored: width must be a multiple of 8";
    return;
  }
  g_tile_cols.store(cols, std::memory_order_release);
  PublishTileCols(cols);
}

}  // namespace cpgan::tensor::kernels
