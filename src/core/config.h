#ifndef CPGAN_CORE_CONFIG_H_
#define CPGAN_CORE_CONFIG_H_

#include <cstdint>
#include <string>

namespace cpgan::core {

/// Hyper-parameters of the CPGAN model and its training loop.
///
/// Defaults follow the paper's experiment section scaled to a single CPU
/// core: the paper uses kernel size 128 and pooling size 256 on a 24 GB GPU;
/// we default to smaller widths so the benchmarks finish in seconds while the
/// relative comparisons are preserved. Fig. 5's sensitivity sweep (spectral
/// input dimension, number of hierarchy levels) is exposed through
/// `feature_dim` and `num_levels`.
struct CpganConfig {
  /// Dimension of the spectral node embedding used as input features X(A).
  int feature_dim = 8;

  /// Graph-convolution kernel size (paper: 128).
  int hidden_dim = 32;

  /// Latent dimension d' of the variational module.
  int latent_dim = 16;

  /// Number of hierarchy levels k in the ladder encoder (Fig. 5: 2 is best).
  int num_levels = 2;

  /// Cap on the cluster count of the first pooling step (paper: 256). The
  /// first step pools the n_s sampled nodes to min(max_pool_size,
  /// max(2, n_s / 4)) clusters, and each later step to a quarter of the
  /// step before, at least 2.
  int max_pool_size = 64;

  /// Training epochs (each epoch = one discriminator + one generator step on
  /// a sampled subgraph).
  int epochs = 120;

  /// Nodes sampled per training step (n_s in Section III-E).
  int subgraph_size = 128;

  /// Adam learning rate (paper: 1e-3).
  float learning_rate = 1e-3f;

  /// Learning-rate multiplier for the "memorization" parameter group — the
  /// trainable node features and the decoder (whose dot-product logits must
  /// grow to separate edges from the quadratically many non-edges). The
  /// adversarial parts keep the base rate for stability.
  float fast_lr_multiplier = 20.0f;

  /// Learning-rate decay factor and period in epochs (paper: 0.3 / 400).
  float lr_decay = 0.3f;
  int lr_decay_every = 400;

  /// Loss weights of clustering consistency (L_clus) and of the
  /// reconstruction likelihood of eq. (14). The adversarial, mapping
  /// consistency (L_rec) and KL weights are fixed (core/cpgan.cc).
  float clus_weight = 1.0f;
  float bce_weight = 3.0f;

  /// Run the discriminator update every this many epochs (the generator
  /// updates every epoch). 1 = the paper's strict alternation; larger values
  /// trade adversarial pressure for wall-clock on a single core.
  int disc_every = 2;

  /// Include the Gaussian-prior sample path (second expectation of eq. 16)
  /// every this many epochs.
  int prior_every = 4;

  /// Ablation switches (Table VI):
  /// CPGAN-C — replace the GRU node decoding with a concatenation.
  bool concat_decoder = false;
  /// CPGAN-noV — disable variational inference (use means, no KL).
  bool use_variational = true;
  /// CPGAN-noH — disable hierarchical pooling (single level).
  bool use_hierarchy = true;

  /// Use the A + A^2 connectivity-boosted normalized adjacency in the
  /// encoder (Section III-C1's "information can flow among nodes faster"
  /// variant). Off by default; costs extra fill-in on dense graphs.
  bool use_two_hop_adjacency = false;

  /// Train on a sensitivity-sampled coreset subgraph of at most this many
  /// nodes instead of the full observed graph (docs/INTERNALS.md,
  /// "Streaming ingest"): nodes are drawn by mixture-sensitivity importance
  /// sampling (core/sampler.h, SensitivityCoresetSample) and the induced
  /// subgraph replaces the observed graph for the whole run — spectral
  /// features, Louvain targets, and per-epoch subgraph sampling all operate
  /// on the coreset, so training cost and memory depend on coreset_size,
  /// not on the full graph. 0 (default) trains on the full graph. Ignored
  /// when >= the observed node count.
  int coreset_size = 0;

  /// Default generation mode for Generate()/GenerateWithSize(): when true,
  /// graphs are assembled hierarchically (docs/INTERNALS.md, "Hierarchical
  /// assembly") — community skeleton from the learned pooled
  /// representation, per-community decodes fanned out over the thread
  /// pool, cross-community stitching. Purely a generation-time switch: it
  /// does not affect training or the architecture hash, so checkpoints are
  /// interchangeable between modes. The serving protocol selects the mode
  /// per request (`hier=1`) regardless of this default.
  bool hierarchical_generation = false;

  /// Soft RAM budget in MiB enforced through util::MemoryTracker: set as
  /// the tracker budget for the run, and TrainStats::budget_exceeded
  /// reports whether the tracked peak (tensor storage + ingest CSR
  /// construction) overran it. The binary ingest path additionally refuses
  /// up front to build a CSR whose projected footprint exceeds the budget
  /// (graph/binary_io.h). 0 (default) = unlimited.
  int64_t mem_budget_mb = 0;

  /// Worker threads for the parallel kernels (matmul, SpMM, graph metrics).
  /// 0 keeps the process-wide default (CPGAN_NUM_THREADS env var, falling
  /// back to the hardware concurrency); > 0 resizes the global pool.
  /// Results are bitwise identical for any value (docs/INTERNALS.md,
  /// "Threading model").
  int num_threads = 0;

  /// RNG seed for parameters, sampling, and generation.
  uint64_t seed = 1;

  /// Emit progress logs during training.
  bool verbose = false;

  // ----- Fault tolerance (src/train/; docs/INTERNALS.md) -----

  /// Directory for periodic training checkpoints (created if missing).
  /// Empty disables checkpointing.
  std::string checkpoint_dir;

  /// Write a checkpoint every this many epochs; one is always written after
  /// the final epoch when checkpointing is enabled.
  int checkpoint_every = 50;

  // ----- Observability (src/obs/; docs/OBSERVABILITY.md) -----

  /// Structured run log: write one JSONL record per training epoch (losses,
  /// grad norm, guard trips, checkpoint latency, memory, RSS) to this path.
  /// Empty disables the run log.
  std::string metrics_out;

  /// Also append a full metrics-registry snapshot line (tagged
  /// "kind":"metrics_snapshot") to the run log every this many epochs, plus
  /// once after the final epoch. 0 (default) disables, keeping the run log
  /// at exactly one line per epoch for line-counting consumers.
  int metrics_snapshot_every = 0;

  /// Collect trace spans during training and print the aggregated profile
  /// table after Fit returns. Purely observational — enabling it cannot
  /// change any numeric result.
  bool profile = false;

  /// Record Chrome trace_event JSON for every span and write it to this
  /// path after Fit (load via chrome://tracing or Perfetto). Empty disables.
  std::string trace_out;
};

}  // namespace cpgan::core

#endif  // CPGAN_CORE_CONFIG_H_
