#include "tensor/optimizer.h"

#include <cmath>

namespace cpgan::tensor {

namespace {

/// Decay rates of the first and second moment estimates, and the
/// denominator's floor.
constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEps = 1e-8f;

}  // namespace

Adam::Adam(std::vector<Tensor> params, float lr)
    : params_(std::move(params)), lr_(lr) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Tensor& p : params_) {
    CPGAN_CHECK(p.defined());
    CPGAN_CHECK(p.requires_grad());
    m_.emplace_back(p.rows(), p.cols());
    v_.emplace_back(p.rows(), p.cols());
  }
}

void Adam::ZeroGrad() {
  for (Tensor& p : params_) p.ZeroGrad();
}

void Adam::Step() {
  ++t_;
  float bias1 = 1.0f - std::pow(kBeta1, static_cast<float>(t_));
  float bias2 = 1.0f - std::pow(kBeta2, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    const Matrix& g = p.grad();
    Matrix& m = m_[i];
    Matrix& v = v_[i];
    Matrix& value = p.mutable_value();
    for (int64_t j = 0; j < value.size(); ++j) {
      float gj = g.data()[j];
      m.data()[j] = kBeta1 * m.data()[j] + (1.0f - kBeta1) * gj;
      v.data()[j] = kBeta2 * v.data()[j] + (1.0f - kBeta2) * gj * gj;
      float m_hat = m.data()[j] / bias1;
      float v_hat = v.data()[j] / bias2;
      value.data()[j] -= lr_ * m_hat / (std::sqrt(v_hat) + kEps);
    }
  }
}

void ClipGradients(const std::vector<Tensor>& params, float clip) {
  CPGAN_CHECK_GT(clip, 0.0f);
  for (const Tensor& p : params) {
    if (!p.defined() || !p.requires_grad()) continue;
    // grad() materializes lazily; mutate through the node.
    Matrix& g = const_cast<Matrix&>(p.grad());
    for (int64_t i = 0; i < g.size(); ++i) {
      float v = g.data()[i];
      if (v > clip) g.data()[i] = clip;
      if (v < -clip) g.data()[i] = -clip;
    }
  }
}

}  // namespace cpgan::tensor
