#include "tensor/kernels.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "tensor/kernels_backends.h"
#include "util/cpuid.h"
#include "util/logging.h"

namespace cpgan::tensor::kernels {

namespace {

std::mutex g_select_mutex;
std::atomic<const KernelOps*> g_active{nullptr};

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

}  // namespace cpgan::tensor::kernels
