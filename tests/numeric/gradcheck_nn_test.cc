// Gradient checks for every nn module, including the degenerate shapes the
// encoder actually produces (single-node communities, empty pools). Each
// check covers ALL module parameters plus the inputs in one GradCheck call.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "nn/gcn.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/pairnorm.h"
#include "tensor/ops.h"
#include "testing/gradcheck.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace cpgan::nn {
namespace {

namespace t = cpgan::tensor;
using cpgan::testing::CheckOpGradient;
using cpgan::testing::GradCheckResult;
using cpgan::testing::TestMatrix;

t::Tensor Param(int rows, int cols, float scale = 1.0f, uint64_t seed = 7) {
  return t::Tensor(TestMatrix(rows, cols, scale, seed), /*requires_grad=*/true);
}

std::vector<t::Tensor> WithInputs(const Module& m,
                                  std::initializer_list<t::Tensor> inputs) {
  std::vector<t::Tensor> params = m.Parameters();
  params.insert(params.end(), inputs.begin(), inputs.end());
  return params;
}

void ExpectOk(const GradCheckResult& result) {
  EXPECT_TRUE(result.ok) << result.Summary();
  EXPECT_GT(result.entries_checked, 0);
}

TEST(GradCheckNn, Linear) {
  util::Rng rng(1);
  for (auto [batch, in, out] :
       std::vector<std::array<int, 3>>{{4, 3, 5}, {1, 6, 2}, {5, 1, 1}}) {
    Linear layer(in, out, rng);
    t::Tensor x = Param(batch, in, 1.0f, 11);
    ExpectOk(CheckOpGradient(
        "nn.Linear",
        [&] { return t::SumAll(t::Square(layer.Forward(x))); },
        WithInputs(layer, {x})));
  }
  // Bias-free variant exercises the other Forward branch.
  Linear no_bias(3, 2, rng, /*bias=*/false);
  t::Tensor x = Param(4, 3, 1.0f, 12);
  ExpectOk(CheckOpGradient(
      "nn.Linear",
      [&] { return t::SumAll(t::Square(no_bias.Forward(x))); },
      WithInputs(no_bias, {x})));
}

TEST(GradCheckNn, Mlp) {
  util::Rng rng(2);
  // Tanh hidden activation: smooth everywhere, unlike relu whose kink at 0
  // poisons finite differences for freshly initialized nets.
  Mlp mlp({4, 6, 3}, rng, Activation::kTanh, Activation::kSigmoid);
  t::Tensor x = Param(5, 4, 1.0f, 21);
  ExpectOk(CheckOpGradient(
      "nn.Mlp", [&] { return t::SumAll(t::Square(mlp.Forward(x))); },
      WithInputs(mlp, {x})));

  // Single-sample batch.
  t::Tensor one = Param(1, 4, 1.0f, 22);
  ExpectOk(CheckOpGradient(
      "nn.Mlp", [&] { return t::SumAll(t::Square(mlp.Forward(one))); },
      WithInputs(mlp, {one})));
}

TEST(GradCheckNn, GcnConvSparse) {
  util::Rng rng(3);
  GcnConv conv(3, 4, rng);
  auto a_hat = std::make_shared<t::SparseMatrix>(
      4, 4,
      std::vector<t::Triplet>{{0, 0, 0.5f},
                              {0, 1, 0.5f},
                              {1, 0, 0.3f},
                              {1, 1, 0.7f},
                              {2, 2, 1.0f},
                              {3, 1, 0.2f},
                              {3, 3, 0.8f}});
  t::Tensor x = Param(4, 3, 1.0f, 31);
  ExpectOk(CheckOpGradient(
      "nn.GcnConv",
      [&] { return t::SumAll(t::Square(conv.Forward(a_hat, x))); },
      WithInputs(conv, {x})));

  // Single-node community: 1 x 1 adjacency.
  auto self = std::make_shared<t::SparseMatrix>(
      1, 1, std::vector<t::Triplet>{{0, 0, 1.0f}});
  t::Tensor x1 = Param(1, 3, 1.0f, 32);
  ExpectOk(CheckOpGradient(
      "nn.GcnConv",
      [&] { return t::SumAll(t::Square(conv.Forward(self, x1))); },
      WithInputs(conv, {x1})));
}

TEST(GradCheckNn, GcnConvDense) {
  util::Rng rng(4);
  GcnConv conv(3, 2, rng);
  // Adjacency participates in autograd, routed through the differentiable
  // row normalization used for coarsened levels. Entries are shifted
  // positive so normalization stays away from its eps floor.
  t::Tensor a = Param(4, 4, 0.4f, 41);
  for (int64_t i = 0; i < a.value().size(); ++i) {
    a.mutable_value().data()[i] += 1.0f;
  }
  t::Tensor x = Param(4, 3, 1.0f, 42);
  ExpectOk(CheckOpGradient(
      "nn.GcnConvDense",
      [&] {
        return t::SumAll(
            t::Square(conv.ForwardDense(RowNormalizeAdjacency(a), x)));
      },
      WithInputs(conv, {a, x})));
}

TEST(GradCheckNn, PairNorm) {
  // No parameters: the check is over the input. Needs >= 2 rows — a single
  // row centers to exactly zero, which parks every row norm on the eps
  // floor (a genuinely non-differentiable point).
  t::Tensor x = Param(5, 3, 1.0f, 51);
  ExpectOk(CheckOpGradient(
      "nn.PairNorm",
      [&] { return t::SumAll(t::Square(PairNorm(x, 1.5f))); }, {x}));

  // Single-column features (n x 1).
  t::Tensor narrow = Param(4, 1, 1.0f, 52);
  ExpectOk(CheckOpGradient(
      "nn.PairNorm",
      [&] { return t::SumAll(t::Square(PairNorm(narrow))); }, {narrow}));
}

TEST(GradCheckNn, GruCell) {
  util::Rng rng(5);
  GruCell cell(3, 4, rng);
  t::Tensor x = Param(2, 3, 1.0f, 61);
  t::Tensor h = Param(2, 4, 1.0f, 62);
  ExpectOk(CheckOpGradient(
      "nn.GruCell",
      [&] { return t::SumAll(t::Square(cell.Forward(x, h))); },
      WithInputs(cell, {x, h})));

  // Two chained steps: gradients must survive the recurrence.
  t::Tensor x2 = Param(1, 3, 1.0f, 63);
  ExpectOk(CheckOpGradient(
      "nn.GruCell",
      [&] {
        t::Tensor state = cell.Forward(x2, cell.InitialState(1));
        return t::SumAll(t::Square(cell.Forward(x2, state)));
      },
      WithInputs(cell, {x2})));
}

}  // namespace
}  // namespace cpgan::nn
