#include "core/decoder.h"

#include <algorithm>
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

/// Side of the square tiles in which ScoreBlock mirrors its upper triangle.
/// Mirroring reads one side with a stride of a whole row; a 32 x 32 tile
/// keeps those 32 lines in L1 and their pages in the TLB even when a row is
/// 4 KiB (k = 1024), where copying a whole column at once thrashes both.
constexpr int kMirrorTile = 32;

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
  // Every Matmul path sums entry (i, j) over the same products
  // e[i][c]·e[j][c] in the same order as entry (j, i), so the logits are
  // exactly symmetric: the sigmoid runs on the upper triangle and each
  // value is copied to its mirror (docs/INTERNALS.md, "Determinism"). Tile
  // row t computes rows [i0, i1) from the diagonal on, then fills columns
  // [i0, i1) of the rows below; tiles write disjoint entries.
  const float bias = edge_bias();
  const int64_t tiles = (k + kMirrorTile - 1) / kMirrorTile;
  const int64_t grain = std::max<int64_t>(
      1, kElemGrain / (static_cast<int64_t>(kMirrorTile) * std::max(k, 1)));
  util::ParallelFor(0, tiles, grain, [&probs, bias, k](int64_t t0,
                                                       int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const int i0 = static_cast<int>(t) * kMirrorTile;
      const int i1 = std::min(k, i0 + kMirrorTile);
      for (int i = i0; i < i1; ++i) {
        float* row = probs.Row(i);
        for (int j = i; j < k; ++j) row[j] = t::StableSigmoid(row[j] + bias);
      }
      for (int j0 = i0; j0 < k; j0 += kMirrorTile) {
        const int j1 = std::min(k, j0 + kMirrorTile);
        for (int j = std::max(j0, i0 + 1); j < j1; ++j) {
          float* dst = probs.Row(j);
          const int i_end = std::min(i1, j);
          for (int i = i0; i < i_end; ++i) dst[i] = probs.Row(i)[j];
        }
      }
    }
  });
  return probs;
}

}  // namespace cpgan::core
