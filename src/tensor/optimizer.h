#ifndef CPGAN_TENSOR_OPTIMIZER_H_
#define CPGAN_TENSOR_OPTIMIZER_H_

#include <vector>

#include "tensor/tensor.h"

namespace cpgan::tensor {

/// Adam (Kingma & Ba, 2015) with bias correction over a fixed parameter
/// list.
class Adam {
 public:
  Adam(std::vector<Tensor> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update using the gradients currently accumulated on the
  /// parameters, then leaves the gradients untouched (call ZeroGrad next).
  void Step();

  /// Clears the gradient accumulators of every parameter.
  void ZeroGrad();

  /// Multiplies the learning rate by `factor` (used for the paper's
  /// decay-0.3-per-400-epochs schedule).
  void DecayLearningRate(float factor) { lr_ *= factor; }

  float learning_rate() const { return lr_; }

 private:
  std::vector<Tensor> params_;
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  int64_t t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

/// Clips every parameter gradient to [-clip, clip] elementwise. Helps keep
/// adversarial training stable on small graphs.
void ClipGradients(const std::vector<Tensor>& params, float clip);

}  // namespace cpgan::tensor

#endif  // CPGAN_TENSOR_OPTIMIZER_H_
