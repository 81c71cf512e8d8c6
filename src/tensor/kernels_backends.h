#ifndef CPGAN_TENSOR_KERNELS_BACKENDS_H_
#define CPGAN_TENSOR_KERNELS_BACKENDS_H_

#include "tensor/kernels.h"

namespace cpgan::tensor::kernels::internal {

/// \file
/// Private seam between the dispatcher (kernels.cc) and the backend
/// translation units. Each backend TU exports exactly one table getter;
/// kernels.cc is the only includer besides the backends themselves.
///
/// The avx2 TU is compiled with -mavx2 -mfma (see src/CMakeLists.txt), so
/// nothing outside the KernelOps function pointers may reference its
/// symbols — a direct call could inline AVX2 code into a TU that runs on
/// pre-AVX2 hardware before the CPUID check.

/// The scalar table (always present; the PR-2 reference loops).
const KernelOps& ScalarOps();

/// The avx2 table, or nullptr when not built for x86-64. Runtime CPUID
/// gating happens in kernels.cc, not here.
const KernelOps* Avx2OpsIfBuilt();

}  // namespace cpgan::tensor::kernels::internal

#endif  // CPGAN_TENSOR_KERNELS_BACKENDS_H_
