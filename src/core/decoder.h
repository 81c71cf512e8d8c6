#ifndef CPGAN_CORE_DECODER_H_
#define CPGAN_CORE_DECODER_H_

#include <memory>
#include <vector>

#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/mlp.h"

namespace cpgan::core {

/// CPGAN graph decoder (Section III-E): a GRU folds the hierarchy-level
/// latent features into one node representation h_k (eq. 13), then a 2-layer
/// MLP g_theta embeds nodes and edges are scored by the inner product
/// sigmoid(g(h_i)^T g(h_j)) (eq. 14).
///
/// The CPGAN-C ablation replaces the GRU with a concatenation of all levels
/// followed by a linear projection.
///
/// Everything before the inner product acts on one node at a time, so
/// generation embeds every node once (EmbeddingTable) and scores any node
/// subset from that table by dot products (ScoreBlock). Training keeps the
/// differentiable path, DecodeNodes then EdgeLogits.
class GraphDecoder : public nn::Module {
 public:
  GraphDecoder(int latent_dim, int hidden_dim, int num_levels,
               bool concat_levels, util::Rng& rng);

  /// Folds the per-level latent features (each n x latent) into node
  /// representations h_k: n x hidden.
  tensor::Tensor DecodeNodes(const std::vector<tensor::Tensor>& z_vae) const;

  /// Edge-probability logits for all pairs of the given nodes:
  /// logits = g(h) g(h)^T + b, shape n x n (pre-sigmoid). Training only:
  /// generation scores through ScoreBlock.
  tensor::Tensor EdgeLogits(const tensor::Tensor& h) const;

  /// Node embeddings g_theta(h): n x hidden.
  tensor::Tensor EdgeEmbeddings(const tensor::Tensor& h) const;

  /// Edge-embedding table E = g_theta(DecodeNodes(latents)) over constant
  /// per-level latents (each n x latent): n x hidden, one decoder pass.
  tensor::Matrix EmbeddingTable(
      const std::vector<tensor::Matrix>& latents) const;

  /// Edge probabilities sigmoid(e e^T + b) among the table rows `rows`
  /// (duplicates allowed), |rows| x |rows|, computed on plain matrices
  /// with no autograd tape. Equal bit for bit to
  /// Sigmoid(EdgeLogits(DecodeNodes(gathered latent rows))) whenever the
  /// decoder's products take the same kernel path for |rows| rows as for
  /// the table's rows (always on the scalar backend; see docs/INTERNALS.md,
  /// "Determinism").
  tensor::Matrix ScoreBlock(const tensor::Matrix& table,
                            const std::vector<int>& rows) const;

  int hidden_dim() const { return hidden_dim_; }

  /// Current value of the global edge-logit bias.
  float edge_bias() const { return bias_.value().At(0, 0); }

 private:
  int latent_dim_;
  int hidden_dim_;
  int num_levels_;
  bool concat_levels_;
  std::unique_ptr<nn::GruCell> gru_;
  std::unique_ptr<nn::Linear> concat_proj_;
  std::unique_ptr<nn::Mlp> g_theta_;
  /// Learnable global logit offset, initialized to the sparsity prior so
  /// non-edges start near probability 0 instead of 0.5.
  tensor::Tensor bias_;
};

}  // namespace cpgan::core

#endif  // CPGAN_CORE_DECODER_H_
