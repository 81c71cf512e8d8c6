#include "core/decoder.h"

#include <cstring>

#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace cpgan::core {

namespace t = cpgan::tensor;

namespace {

/// Entries per chunk of the bias-and-sigmoid pass (the tensor ops' grain).
constexpr int64_t kElemGrain = 1 << 15;

}  // namespace

GraphDecoder::GraphDecoder(int latent_dim, int hidden_dim, int num_levels,
                           bool concat_levels, util::Rng& rng)
    : latent_dim_(latent_dim),
      hidden_dim_(hidden_dim),
      num_levels_(num_levels),
      concat_levels_(concat_levels) {
  if (concat_levels_) {
    concat_proj_ = std::make_unique<nn::Linear>(latent_dim * num_levels,
                                                hidden_dim, rng);
    RegisterModule(concat_proj_.get());
  } else {
    gru_ = std::make_unique<nn::GruCell>(latent_dim, hidden_dim, rng);
    RegisterModule(gru_.get());
  }
  g_theta_ = std::make_unique<nn::Mlp>(
      std::vector<int>{hidden_dim, hidden_dim, hidden_dim}, rng);
  RegisterModule(g_theta_.get());
  bias_ = AddZeroParameter("edge_bias", 1, 1);
  bias_.mutable_value().At(0, 0) = -3.0f;
}

t::Tensor GraphDecoder::DecodeNodes(
    const std::vector<t::Tensor>& z_vae) const {
  CPGAN_CHECK(!z_vae.empty());
  CPGAN_CHECK_EQ(static_cast<int>(z_vae.size()), num_levels_);
  CPGAN_TRACE_SPAN("decoder/decode");
  if (concat_levels_) {
    t::Tensor stacked =
        z_vae.size() == 1 ? z_vae[0] : t::ConcatCols(z_vae);
    return t::Relu(concat_proj_->Forward(stacked));
  }
  // h_{l+1} = GRU(h_l, Z_vae^{(l+1)}), h_0 = 0 (eq. 13).
  t::Tensor h = gru_->InitialState(z_vae[0].rows());
  for (const t::Tensor& level : z_vae) {
    h = gru_->Forward(level, h);
  }
  return h;
}

t::Tensor GraphDecoder::EdgeEmbeddings(const t::Tensor& h) const {
  return g_theta_->Forward(h);
}

t::Tensor GraphDecoder::EdgeLogits(const t::Tensor& h) const {
  CPGAN_TRACE_SPAN("decoder/edge_logits");
  t::Tensor e = EdgeEmbeddings(h);
  return t::AddScalar(t::Matmul(e, t::Transpose(e)), bias_);
}

t::Matrix GraphDecoder::EmbeddingTable(
    const std::vector<t::Matrix>& latents) const {
  std::vector<t::Tensor> z;
  z.reserve(latents.size());
  for (const t::Matrix& level : latents) z.push_back(t::Constant(level));
  return EdgeEmbeddings(DecodeNodes(z)).value();
}

t::Matrix GraphDecoder::ScoreBlock(const t::Matrix& table,
                                   const std::vector<int>& rows) const {
  CPGAN_TRACE_SPAN("decoder/score");
  const int k = static_cast<int>(rows.size());
  const int d = table.cols();
  t::Matrix e(k, d);
  for (int i = 0; i < k; ++i) {
    CPGAN_CHECK(rows[i] >= 0 && rows[i] < table.rows());
    std::memcpy(e.Row(i), table.Row(rows[i]), sizeof(float) * d);
  }
  // The product EdgeLogits takes, so every logit rounds the same way.
  t::Matrix probs = t::Matmul(e, e.Transposed());
  const float bias = edge_bias();
  float* p = probs.data();
  util::ParallelFor(0, probs.size(), kElemGrain,
                    [p, bias](int64_t i0, int64_t i1) {
                      for (int64_t i = i0; i < i1; ++i) {
                        p[i] = t::StableSigmoid(p[i] + bias);
                      }
                    });
  return probs;
}

}  // namespace cpgan::core
