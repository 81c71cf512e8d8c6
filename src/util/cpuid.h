#ifndef CPGAN_UTIL_CPUID_H_
#define CPGAN_UTIL_CPUID_H_

#include <string>

namespace cpgan::util {

/// \file
/// Runtime CPU feature detection for the kernel backend dispatch
/// (src/tensor/kernels.h). Queried exactly once per feature; the answers
/// never change while the process runs.

/// True when the CPU executes AVX2 and FMA instructions (both are required
/// by the avx2 kernel backend). Always false on non-x86 builds.
bool CpuSupportsAvx2();

/// Human-readable summary of the detected SIMD capability, for logs and the
/// obs snapshot: "avx2+fma" or "none".
std::string CpuSimdSummary();

}  // namespace cpgan::util

#endif  // CPGAN_UTIL_CPUID_H_
