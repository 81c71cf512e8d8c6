#include "tensor/optimizer.h"

#include <cmath>

namespace cpgan::tensor {

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2,
           float eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
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
  float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    const Matrix& g = p.grad();
    Matrix& m = m_[i];
    Matrix& v = v_[i];
    Matrix& value = p.mutable_value();
    for (int64_t j = 0; j < value.size(); ++j) {
      float gj = g.data()[j];
      m.data()[j] = beta1_ * m.data()[j] + (1.0f - beta1_) * gj;
      v.data()[j] = beta2_ * v.data()[j] + (1.0f - beta2_) * gj * gj;
      float m_hat = m.data()[j] / bias1;
      float v_hat = v.data()[j] / bias2;
      value.data()[j] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
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
