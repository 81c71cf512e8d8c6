#ifndef CPGAN_TRAIN_GUARD_H_
#define CPGAN_TRAIN_GUARD_H_

#include <deque>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/tensor.h"

namespace cpgan::train {

/// Learning-rate multiplier Cpgan applies to its optimizers after each
/// recovery. The guard itself does not own the optimizers.
inline constexpr float kLrDecayOnRecovery = 0.5f;

/// Why a step was rejected.
enum class StepVerdict {
  kOk,
  kNonFiniteLoss,
  kNonFiniteGrad,
  kLossExplosion,
};

/// Human-readable verdict label for logs.
const char* StepVerdictName(StepVerdict verdict);

/// Numeric watchdog for an optimizer step, sitting between Backward() and
/// Adam::Step() (state machine documented in docs/INTERNALS.md):
///
///   Inspect(loss, step_params)  -> kOk: caller applies the step, then
///                                  CommitGood(loss) snapshots the params as
///                                  last-known-good.
///                               -> anything else: caller skips the step,
///                                  zeroes gradients, and calls Recover() to
///                                  roll the params back to the snapshot.
///
/// Because the check runs *before* Step(), a NaN gradient never reaches the
/// optimizer's moment buffers — recovery only has to restore parameter
/// values, not optimizer state.
class TrainingGuard {
 public:
  /// `params` is the full guarded parameter set (snapshot/restore target);
  /// per-step gradient checks run on the subset passed to Inspect.
  explicit TrainingGuard(std::vector<tensor::Tensor> params);

  /// Judges the step about to be applied. `loss` is the freshly
  /// backpropagated scalar; gradients are read from `step_params`. A step
  /// is a loss explosion when |loss| exceeds 25 times the mean absolute
  /// loss of the stream's last 16 good steps, checked once that window is
  /// full (kExplosionFactor and kLossWindow in guard.cc). `stream` selects an
  /// independent window — losses of different magnitudes (e.g.
  /// discriminator vs generator) must not share a reference; the snapshot
  /// is shared across streams.
  StepVerdict Inspect(float loss,
                      const std::vector<tensor::Tensor>& step_params,
                      int stream = 0) const;

  /// Records a successful step: pushes `loss` into the stream's explosion
  /// window and snapshots every guarded parameter as last-known-good.
  void CommitGood(float loss, int stream = 0);

  /// Restores the last-known-good snapshot into the guarded parameters and
  /// counts a recovery. Returns false if no good step has been committed yet
  /// (parameters are left untouched; the recovery is still counted).
  bool Recover();

  int recoveries() const { return recoveries_; }

  bool has_snapshot() const { return has_snapshot_; }

 private:
  std::vector<tensor::Tensor> params_;
  std::vector<tensor::Matrix> snapshot_;
  bool has_snapshot_ = false;
  /// Per-stream windows of recent good losses (grown on demand).
  std::vector<std::deque<float>> recent_losses_;
  int recoveries_ = 0;
};

}  // namespace cpgan::train

#endif  // CPGAN_TRAIN_GUARD_H_
