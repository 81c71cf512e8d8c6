#ifndef CPGAN_TESTING_GRADCHECK_H_
#define CPGAN_TESTING_GRADCHECK_H_

#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace cpgan::testing {

/// \file
/// Central finite-difference gradient checker for the autograd engine.
///
/// Every differentiable op in tensor/ops.h and every nn module has a
/// registered name in GradCheckRegistry::RequiredOps(); the numeric test
/// suite (tests/numeric/) calls CheckOpGradient for each, and a global test
/// environment asserts that no required op was left unchecked. Adding a new
/// op without a gradient check therefore fails `ctest -L numeric`.
/// See docs/TESTING.md.

struct GradCheckOptions {
  /// Central-difference step. Loss values are float, so the subtraction
  /// cancels ~eps*|loss|/(2*step) of precision; 1e-3 balances that against
  /// the O(step^2) truncation error for O(1) losses.
  float step = 1e-3f;
  /// An entry fails when |analytic - numeric| > atol + rtol * max(|analytic|,
  /// |numeric|) (the torch.allclose convention).
  float rtol = 2e-2f;
  float atol = 5e-3f;
  /// Failures recorded in GradCheckResult::failures (all are counted).
  int max_failures_reported = 8;
};

/// One failing gradient entry.
struct GradCheckFailure {
  int param = 0;        ///< Index into the `params` vector.
  int64_t index = 0;    ///< Flat entry index within the parameter.
  float analytic = 0.0f;
  float numeric = 0.0f;
  float error = 0.0f;   ///< |analytic - numeric|.
};

/// Outcome of one GradCheck run.
struct GradCheckResult {
  bool ok = true;
  int64_t entries_checked = 0;
  int64_t entries_failed = 0;
  /// Largest |analytic - numeric| / (atol + rtol * max(|a|, |n|)) ratio seen;
  /// <= 1 when ok.
  double max_error_ratio = 0.0;
  std::vector<GradCheckFailure> failures;

  /// Human-readable one-paragraph report (for test assertion messages).
  std::string Summary() const;
};

/// Checks the autograd gradients of `loss_fn` with respect to every tensor in
/// `params` against central finite differences.
///
/// `loss_fn` must rebuild the loss graph from the *current* values of the
/// parameters on every call (no reuse of old graph nodes) and return a 1x1
/// tensor. A forward that draws random numbers must draw from a freshly
/// re-seeded Rng inside `loss_fn` so every call sees the same draws.
GradCheckResult GradCheck(const std::function<tensor::Tensor()>& loss_fn,
                          const std::vector<tensor::Tensor>& params,
                          const GradCheckOptions& options = {});

/// Tracks which required ops have been exercised by a gradient check in this
/// process. Thread-safe.
class GradCheckRegistry {
 public:
  static GradCheckRegistry& Global();

  /// The canonical list of ops/modules that must have a gradient check:
  /// every autograd op in tensor/ops.h plus every nn module. Extend this
  /// list when adding an op — the coverage assertion fails until a matching
  /// CheckOpGradient call exists.
  static const std::vector<std::string>& RequiredOps();

  /// Records that `op_name` has a gradient check.
  void MarkCovered(const std::string& op_name);

  /// Required ops with no recorded check, sorted.
  std::vector<std::string> Missing() const;

  /// Ops recorded so far, sorted.
  std::vector<std::string> Covered() const;

 private:
  mutable std::mutex mutex_;
  std::set<std::string> covered_;
};

/// Marks `op_name` covered in the global registry, then runs GradCheck.
/// `op_name` must be one of GradCheckRegistry::RequiredOps() (checked).
GradCheckResult CheckOpGradient(const std::string& op_name,
                                const std::function<tensor::Tensor()>& loss_fn,
                                const std::vector<tensor::Tensor>& params,
                                const GradCheckOptions& options = {});

}  // namespace cpgan::testing

#endif  // CPGAN_TESTING_GRADCHECK_H_
