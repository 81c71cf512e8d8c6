#include <cmath>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/optimizer.h"

namespace cpgan::tensor {
namespace {

/// Minimizes f(x) = ||x - target||^2 with `opt` for `steps` iterations and
/// returns the final distance to the optimum.
float MinimizeQuadratic(Adam& opt, Tensor& x, const Matrix& target,
                        int steps) {
  Tensor t = Constant(target);
  for (int i = 0; i < steps; ++i) {
    Tensor loss = MseLoss(x, t);
    Backward(loss);
    opt.Step();
    opt.ZeroGrad();
  }
  Matrix diff = x.value();
  diff.Axpy(-1.0f, target);
  return diff.Norm();
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Tensor x(Matrix(2, 3, 10.0f), true);
  Matrix target(2, 3, -1.0f);
  Adam opt({x}, 0.3f);
  EXPECT_LT(MinimizeQuadratic(opt, x, target, 400), 1e-2f);
}

TEST(AdamTest, HandlesScaledGradients) {
  // Adam's per-parameter normalization should converge even when the loss
  // is scaled by a large constant.
  Tensor x(Matrix(1, 1, 3.0f), true);
  Tensor target = ScalarConstant(0.0f);
  Adam opt({x}, 0.2f);
  for (int i = 0; i < 300; ++i) {
    Tensor loss = Scale(Square(Sub(x, target)), 1e4f);
    Backward(loss);
    opt.Step();
    opt.ZeroGrad();
  }
  EXPECT_NEAR(x.value().At(0, 0), 0.0f, 0.05f);
}

TEST(OptimizerTest, LearningRateDecay) {
  Tensor x(Matrix(1, 1, 1.0f), true);
  Adam opt({x}, 1.0f);
  opt.DecayLearningRate(0.3f);
  EXPECT_FLOAT_EQ(opt.learning_rate(), 0.3f);
  opt.DecayLearningRate(0.3f);
  EXPECT_NEAR(opt.learning_rate(), 0.09f, 1e-6f);
}

TEST(OptimizerTest, ZeroGradClearsAll) {
  Tensor x(Matrix(2, 2, 1.0f), true);
  Adam opt({x}, 0.1f);
  Backward(SumAll(x));
  EXPECT_GT(x.grad().Norm(), 0.0f);
  opt.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad().Norm(), 0.0f);
}

TEST(ClipGradientsTest, ClampsElementwise) {
  Tensor x(Matrix(1, 3), true);
  Tensor scale = Constant([] {
    Matrix m(1, 3);
    m.At(0, 0) = 100.0f;
    m.At(0, 1) = -50.0f;
    m.At(0, 2) = 0.5f;
    return m;
  }());
  Backward(SumAll(Mul(x, scale)));
  ClipGradients({x}, 2.0f);
  EXPECT_FLOAT_EQ(x.grad().At(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(x.grad().At(0, 1), -2.0f);
  EXPECT_FLOAT_EQ(x.grad().At(0, 2), 0.5f);
}

}  // namespace
}  // namespace cpgan::tensor
