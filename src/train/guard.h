#ifndef CPGAN_TRAIN_GUARD_H_
#define CPGAN_TRAIN_GUARD_H_

#include <deque>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/tensor.h"

namespace cpgan::train {

/// Knobs for the numeric training guard (surfaced on core::CpganConfig).
struct GuardConfig {
  /// Master switch; a disabled guard approves every step and never snapshots.
  bool enabled = true;

  /// Number of recent good-step losses kept for the explosion reference.
  int window = 16;

  /// A step is rejected as an explosion when |loss| exceeds this multiple of
  /// the rolling mean absolute loss over a *full* window. <= 0 disables the
  /// explosion check (non-finite checks still apply).
  float explosion_factor = 25.0f;

  /// Learning-rate multiplier the caller should apply to its optimizers after
  /// each recovery (1 = keep the rate). The guard itself does not own the
  /// optimizers; Cpgan reads this knob.
  float lr_decay_on_recovery = 0.5f;

  /// Abort-training threshold: after this many recoveries the guard reports
  /// exhausted() and the caller should stop instead of thrashing. 0 =
  /// unlimited.
  int max_recoveries = 0;
};

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
  TrainingGuard(const GuardConfig& config, std::vector<tensor::Tensor> params);

  /// Judges the step about to be applied. `loss` is the freshly
  /// backpropagated scalar; gradients are read from `step_params`. `stream`
  /// selects an independent explosion window — losses of different
  /// magnitudes (e.g. discriminator vs generator) must not share a
  /// reference; the snapshot is shared across streams.
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

  /// True once max_recoveries (if set) has been reached.
  bool exhausted() const {
    return config_.max_recoveries > 0 &&
           recoveries_ >= config_.max_recoveries;
  }

  bool has_snapshot() const { return has_snapshot_; }

 private:
  GuardConfig config_;
  std::vector<tensor::Tensor> params_;
  std::vector<tensor::Matrix> snapshot_;
  bool has_snapshot_ = false;
  /// Per-stream windows of recent good losses (grown on demand).
  std::vector<std::deque<float>> recent_losses_;
  int recoveries_ = 0;
};

}  // namespace cpgan::train

#endif  // CPGAN_TRAIN_GUARD_H_
