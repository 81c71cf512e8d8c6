#include "testing/gradcheck.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.h"

namespace cpgan::testing {

std::string GradCheckResult::Summary() const {
  std::ostringstream os;
  os << (ok ? "OK" : "FAIL") << ": " << entries_failed << "/"
     << entries_checked << " gradient entries out of tolerance (max error "
     << "ratio " << max_error_ratio << ")";
  for (const GradCheckFailure& f : failures) {
    os << "\n  param " << f.param << " entry " << f.index
       << ": analytic=" << f.analytic << " numeric=" << f.numeric
       << " |diff|=" << f.error;
  }
  return os.str();
}

GradCheckResult GradCheck(const std::function<tensor::Tensor()>& loss_fn,
                          const std::vector<tensor::Tensor>& params,
                          const GradCheckOptions& options) {
  GradCheckResult result;
  for (const tensor::Tensor& p : params) {
    CPGAN_CHECK(p.defined());
    CPGAN_CHECK(p.requires_grad());
    // `const Tensor&` is a shared handle; ZeroGrad mutates the node.
    tensor::Tensor(p).ZeroGrad();
  }

  tensor::Tensor loss = loss_fn();
  CPGAN_CHECK_EQ(loss.rows(), 1);
  CPGAN_CHECK_EQ(loss.cols(), 1);
  tensor::Backward(loss);

  std::vector<tensor::Matrix> analytic;
  analytic.reserve(params.size());
  for (const tensor::Tensor& p : params) analytic.push_back(p.grad());

  const float step = options.step;
  for (size_t pi = 0; pi < params.size(); ++pi) {
    tensor::Tensor param = params[pi];
    tensor::Matrix& value = param.mutable_value();
    const bool untouched = analytic[pi].size() == 0;  // grad never initialized
    for (int64_t i = 0; i < value.size(); ++i) {
      const float original = value.data()[i];
      value.data()[i] = original + step;
      const float up = loss_fn().Scalar();
      value.data()[i] = original - step;
      const float down = loss_fn().Scalar();
      value.data()[i] = original;
      const float numeric = (up - down) / (2.0f * step);
      const float a = untouched ? 0.0f : analytic[pi].data()[i];
      const float diff = std::fabs(a - numeric);
      const float tol = options.atol +
                        options.rtol * std::max(std::fabs(a),
                                                std::fabs(numeric));
      result.entries_checked += 1;
      if (tol > 0.0f) {
        result.max_error_ratio = std::max(
            result.max_error_ratio, static_cast<double>(diff) / tol);
      }
      if (diff > tol || !std::isfinite(diff)) {
        result.ok = false;
        result.entries_failed += 1;
        if (static_cast<int>(result.failures.size()) <
            options.max_failures_reported) {
          result.failures.push_back({static_cast<int>(pi), i, a, numeric,
                                     diff});
        }
      }
    }
  }
  for (const tensor::Tensor& p : params) tensor::Tensor(p).ZeroGrad();
  return result;
}

GradCheckRegistry& GradCheckRegistry::Global() {
  static GradCheckRegistry* registry = new GradCheckRegistry();
  return *registry;
}

const std::vector<std::string>& GradCheckRegistry::RequiredOps() {
  // Mirrors tensor/ops.h (one entry per differentiable op) and src/nn/ (one
  // entry per module forward). Keep sorted within each group.
  static const std::vector<std::string>* ops = new std::vector<std::string>{
      // Elementwise binary + broadcasts.
      "Add", "AddRowVec", "Mul", "MulColVec", "MulRowVec", "Sub",
      // Scalar-constant and scalar-broadcast ops.
      "AddConst", "AddScalar", "Neg", "Scale",
      // Elementwise unary.
      "Exp", "Log", "Reciprocal", "Relu", "Sigmoid", "Softplus", "Sqrt",
      "Square", "Tanh",
      // Row-wise.
      "SoftmaxRows",
      // Matrix products.
      "Matmul", "Spmm", "Transpose",
      // Structural.
      "ConcatCols", "ConcatRows", "GatherRows", "Reshape", "SliceCols",
      // Reductions.
      "ColMean", "MeanAll", "RowL2Norm", "RowSum", "SumAll",
      // Losses.
      "BceWithLogits", "MseLoss",
      // nn modules.
      "nn.GcnConv", "nn.GcnConvDense", "nn.GruCell", "nn.Linear", "nn.Mlp",
      "nn.PairNorm",
  };
  return *ops;
}

void GradCheckRegistry::MarkCovered(const std::string& op_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  covered_.insert(op_name);
}

std::vector<std::string> GradCheckRegistry::Missing() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> missing;
  for (const std::string& op : RequiredOps()) {
    if (covered_.find(op) == covered_.end()) missing.push_back(op);
  }
  std::sort(missing.begin(), missing.end());
  return missing;
}

std::vector<std::string> GradCheckRegistry::Covered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {covered_.begin(), covered_.end()};
}

GradCheckResult CheckOpGradient(const std::string& op_name,
                                const std::function<tensor::Tensor()>& loss_fn,
                                const std::vector<tensor::Tensor>& params,
                                const GradCheckOptions& options) {
  const std::vector<std::string>& required = GradCheckRegistry::RequiredOps();
  CPGAN_CHECK(std::find(required.begin(), required.end(), op_name) !=
              required.end());
  GradCheckRegistry::Global().MarkCovered(op_name);
  return GradCheck(loss_fn, params, options);
}

}  // namespace cpgan::testing
