#include "train/guard.h"

#include <cmath>

#include "obs/metrics.h"
#include "tensor/ops.h"

namespace cpgan::train {
namespace {

/// Number of recent good-step losses kept per stream as the explosion
/// reference.
constexpr int kLossWindow = 16;

/// A step is rejected as an explosion when |loss| exceeds this multiple of
/// the mean absolute loss over a full window.
constexpr float kExplosionFactor = 25.0f;

}  // namespace

const char* StepVerdictName(StepVerdict verdict) {
  switch (verdict) {
    case StepVerdict::kOk:
      return "ok";
    case StepVerdict::kNonFiniteLoss:
      return "non-finite loss";
    case StepVerdict::kNonFiniteGrad:
      return "non-finite gradient";
    case StepVerdict::kLossExplosion:
      return "loss explosion";
  }
  return "unknown";
}

TrainingGuard::TrainingGuard(std::vector<tensor::Tensor> params)
    : params_(std::move(params)) {}

StepVerdict TrainingGuard::Inspect(
    float loss, const std::vector<tensor::Tensor>& step_params,
    int stream) const {
  if (!std::isfinite(loss)) return StepVerdict::kNonFiniteLoss;
  if (!tensor::GradsFinite(step_params)) return StepVerdict::kNonFiniteGrad;
  if (stream >= 0 && stream < static_cast<int>(recent_losses_.size())) {
    const std::deque<float>& window = recent_losses_[stream];
    if (static_cast<int>(window.size()) >= kLossWindow) {
      double mean_abs = 0.0;
      for (float l : window) mean_abs += std::fabs(l);
      mean_abs /= static_cast<double>(window.size());
      // Floor the reference so near-zero converged losses don't turn
      // ordinary fluctuation into false explosions.
      mean_abs = std::max(mean_abs, 1e-3);
      if (std::fabs(loss) > kExplosionFactor * mean_abs) {
        return StepVerdict::kLossExplosion;
      }
    }
  }
  return StepVerdict::kOk;
}

void TrainingGuard::CommitGood(float loss, int stream) {
  if (stream < 0) return;
  if (stream >= static_cast<int>(recent_losses_.size())) {
    recent_losses_.resize(stream + 1);
  }
  std::deque<float>& window = recent_losses_[stream];
  window.push_back(loss);
  while (static_cast<int>(window.size()) > kLossWindow) {
    window.pop_front();
  }
  if (snapshot_.size() != params_.size()) snapshot_.resize(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    snapshot_[i] = params_[i].value();
  }
  has_snapshot_ = true;
}

bool TrainingGuard::Recover() {
  ++recoveries_;
  CPGAN_COUNTER_ADD("train/guard_trips", 1);
  if (!has_snapshot_) return false;
  CPGAN_COUNTER_ADD("train/guard_rollbacks", 1);
  for (size_t i = 0; i < params_.size(); ++i) {
    params_[i].mutable_value() = snapshot_[i];
  }
  return true;
}

}  // namespace cpgan::train
