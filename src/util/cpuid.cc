#include "util/cpuid.h"

namespace cpgan::util {

bool CpuSupportsAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports reads CPUID once and caches; the avx2 backend
  // uses FMA contractions, so both bits must be present.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

std::string CpuSimdSummary() {
  if (CpuSupportsAvx2()) return "avx2+fma";
  return "none";
}

}  // namespace cpgan::util
