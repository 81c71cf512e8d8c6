// Backend dispatch contract tests:
//  * CPGAN_KERNEL_BACKEND forces the named backend — in particular
//    "scalar" wins even on a machine where CPUID detects AVX2 (the
//    regression that would silently re-enable SIMD under a forced-scalar
//    reproducibility run);
//  * names of backends not available here fall back to auto-detection
//    instead of failing startup;
//  * SetBackend rejects such names and lists the available backends;
//  * Matrix storage honors the 64-byte kernel alignment contract.
// The matmul's packed j-tiles, second and later ones included, are checked
// against the references by the multi-tile shapes of kernel_diff_test.cc.

#include <cstdlib>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/kernels.h"
#include "tensor/matrix.h"
#include "util/aligned.h"
#include "util/cpuid.h"

namespace cpgan::testing {
namespace {

namespace t = cpgan::tensor;
namespace k = cpgan::tensor::kernels;

/// Scoped CPGAN_KERNEL_BACKEND override + re-selection; restores the prior
/// environment AND the prior active backend on destruction so tests stay
/// order-independent.
class ScopedBackendEnv {
 public:
  explicit ScopedBackendEnv(const char* value)
      : previous_active_(k::Active().name) {
    const char* old = std::getenv("CPGAN_KERNEL_BACKEND");
    had_previous_ = old != nullptr;
    if (had_previous_) previous_env_ = old;
    ::setenv("CPGAN_KERNEL_BACKEND", value, /*overwrite=*/1);
    k::ReselectFromEnvironment();
  }

  ~ScopedBackendEnv() {
    if (had_previous_) {
      ::setenv("CPGAN_KERNEL_BACKEND", previous_env_.c_str(), 1);
    } else {
      ::unsetenv("CPGAN_KERNEL_BACKEND");
    }
    EXPECT_TRUE(k::SetBackend(previous_active_));
  }

 private:
  std::string previous_active_;
  std::string previous_env_;
  bool had_previous_ = false;
};

TEST(KernelBackend, ScalarAlwaysAvailableAndActiveIsListed) {
  bool scalar_listed = false;
  bool active_listed = false;
  for (const k::KernelOps* ops : k::AvailableBackends()) {
    if (std::string(ops->name) == "scalar") scalar_listed = true;
    if (ops == &k::Active()) active_listed = true;
  }
  EXPECT_TRUE(scalar_listed);
  EXPECT_TRUE(active_listed)
      << "active backend " << k::Active().name << " not in AvailableBackends";
}

TEST(KernelBackend, EnvForcesScalarEvenWhenSimdDetected) {
  ScopedBackendEnv env("scalar");
  EXPECT_STREQ(k::Active().name, "scalar");
  if (k::Avx2() != nullptr) {
    // The interesting half of the regression: AVX2 is detected and compiled
    // in, yet the env override still pins the scalar fallback.
    EXPECT_TRUE(cpgan::util::CpuSupportsAvx2());
    EXPECT_STRNE(k::Active().name, "avx2");
  }
}

TEST(KernelBackend, EnvForcesAvx2WhenAvailable) {
  if (k::Avx2() == nullptr) GTEST_SKIP() << "no AVX2 on this machine";
  ScopedBackendEnv env("avx2");
  EXPECT_STREQ(k::Active().name, "avx2");
}

TEST(KernelBackend, UnknownEnvNameFallsBackToAutoDetect) {
  const std::string expected = k::Avx2() ? "avx2" : "scalar";
  ScopedBackendEnv env("quantum");
  EXPECT_EQ(std::string(k::Active().name), expected);
}

TEST(KernelBackend, SetBackendRejectsUnknownName) {
  std::vector<const char*> names = {"quantum"};
  if (k::Avx2() == nullptr) names.push_back("avx2");
  for (const char* name : names) {
    std::string error;
    EXPECT_FALSE(k::SetBackend(name, &error));
    EXPECT_NE(error.find("not available on this machine (available: scalar"),
              std::string::npos)
        << error;
  }
}

TEST(KernelBackend, MatrixStorageIs64ByteAligned) {
  for (int rows : {1, 3, 63, 64, 65}) {
    t::Matrix m(rows, rows);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data()) %
                  cpgan::util::kKernelAlignment,
              0u)
        << rows << "x" << rows;
  }
}

}  // namespace
}  // namespace cpgan::testing
