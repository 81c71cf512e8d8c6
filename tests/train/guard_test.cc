#include "train/guard.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "train/fault.h"

namespace cpgan::train {
namespace {

namespace t = cpgan::tensor;

const float kNan = std::numeric_limits<float>::quiet_NaN();
const float kInf = std::numeric_limits<float>::infinity();

std::vector<t::Tensor> MakeParams(int count, float fill) {
  std::vector<t::Tensor> params;
  for (int i = 0; i < count; ++i) {
    params.emplace_back(t::Matrix(2, 3, fill), /*requires_grad=*/true);
  }
  return params;
}

/// Runs a trivial backward pass so every parameter has a touched (finite)
/// gradient accumulator.
void TouchGrads(const std::vector<t::Tensor>& params) {
  t::Tensor loss = t::ScalarConstant(0.0f);
  for (const t::Tensor& p : params) loss = t::Add(loss, t::SumAll(p));
  t::Backward(loss);
}

TEST(GuardTest, ApprovesFiniteStep) {
  auto params = MakeParams(2, 1.0f);
  TouchGrads(params);
  TrainingGuard guard(GuardConfig{}, params);
  EXPECT_EQ(guard.Inspect(0.5f, params), StepVerdict::kOk);
}

TEST(GuardTest, RejectsNonFiniteLoss) {
  auto params = MakeParams(1, 1.0f);
  TouchGrads(params);
  TrainingGuard guard(GuardConfig{}, params);
  EXPECT_EQ(guard.Inspect(kNan, params), StepVerdict::kNonFiniteLoss);
  EXPECT_EQ(guard.Inspect(kInf, params), StepVerdict::kNonFiniteLoss);
  EXPECT_EQ(guard.Inspect(-kInf, params), StepVerdict::kNonFiniteLoss);
}

TEST(GuardTest, RejectsNonFiniteGradientInjectedByFaultPlan) {
  auto params = MakeParams(3, 1.0f);
  TouchGrads(params);
  TrainingGuard guard(GuardConfig{}, params);
  ASSERT_EQ(guard.Inspect(0.5f, params), StepVerdict::kOk);
  PoisonGradient(params, 1);
  EXPECT_EQ(guard.Inspect(0.5f, params), StepVerdict::kNonFiniteGrad);
}

TEST(GuardTest, DetectsLossExplosionOncePerStreamWindowIsFull) {
  GuardConfig config;
  config.window = 4;
  config.explosion_factor = 10.0f;
  auto params = MakeParams(1, 1.0f);
  TouchGrads(params);
  TrainingGuard guard(config, params);
  // Window not full yet: large losses pass the explosion check.
  EXPECT_EQ(guard.Inspect(1e6f, params, 0), StepVerdict::kOk);
  for (int i = 0; i < 4; ++i) guard.CommitGood(1.0f, 0);
  EXPECT_EQ(guard.Inspect(2.0f, params, 0), StepVerdict::kOk);
  EXPECT_EQ(guard.Inspect(50.0f, params, 0), StepVerdict::kLossExplosion);
  // Stream 1 has its own (empty) window: no explosion there.
  EXPECT_EQ(guard.Inspect(50.0f, params, 1), StepVerdict::kOk);
}

TEST(GuardTest, RecoverRestoresLastGoodSnapshot) {
  auto params = MakeParams(2, 1.0f);
  TouchGrads(params);
  TrainingGuard guard(GuardConfig{}, params);
  guard.CommitGood(0.5f);
  ASSERT_TRUE(guard.has_snapshot());
  // Corrupt the live parameters, as a bad step would.
  params[0].mutable_value().Fill(kNan);
  params[1].mutable_value().Fill(777.0f);
  EXPECT_TRUE(guard.Recover());
  EXPECT_EQ(guard.recoveries(), 1);
  for (const t::Tensor& p : params) {
    ASSERT_TRUE(t::AllFinite(p.value()));
    for (int64_t i = 0; i < p.value().size(); ++i) {
      EXPECT_FLOAT_EQ(p.value().data()[i], 1.0f);
    }
  }
}

TEST(GuardTest, RecoverWithoutSnapshotLeavesParamsAlone) {
  auto params = MakeParams(1, 3.0f);
  TrainingGuard guard(GuardConfig{}, params);
  EXPECT_FALSE(guard.Recover());
  EXPECT_EQ(guard.recoveries(), 1);
  EXPECT_FLOAT_EQ(params[0].value().At(0, 0), 3.0f);
}

TEST(GuardTest, DisabledGuardApprovesEverything) {
  GuardConfig config;
  config.enabled = false;
  auto params = MakeParams(1, 1.0f);
  TouchGrads(params);
  PoisonGradient(params, 0);
  TrainingGuard guard(config, params);
  EXPECT_EQ(guard.Inspect(kNan, params), StepVerdict::kOk);
  guard.CommitGood(1.0f);
  EXPECT_FALSE(guard.has_snapshot());
}

TEST(GuardTest, FiniteCheckHelpers) {
  t::Matrix good(2, 2, 1.0f);
  EXPECT_TRUE(t::AllFinite(good));
  good.At(1, 1) = kNan;
  EXPECT_FALSE(t::AllFinite(good));
  good.At(1, 1) = kInf;
  EXPECT_FALSE(t::AllFinite(good));

  auto params = MakeParams(2, 2.0f);
  EXPECT_TRUE(t::GradsFinite(params));  // untouched accumulators are finite
  TouchGrads(params);
  EXPECT_TRUE(t::GradsFinite(params));
  PoisonGradient(params, 0);
  EXPECT_FALSE(t::GradsFinite(params));
}

TEST(GuardTest, VerdictNames) {
  EXPECT_STREQ(StepVerdictName(StepVerdict::kOk), "ok");
  EXPECT_STREQ(StepVerdictName(StepVerdict::kNonFiniteLoss),
               "non-finite loss");
  EXPECT_STREQ(StepVerdictName(StepVerdict::kNonFiniteGrad),
               "non-finite gradient");
  EXPECT_STREQ(StepVerdictName(StepVerdict::kLossExplosion),
               "loss explosion");
}

}  // namespace
}  // namespace cpgan::train
