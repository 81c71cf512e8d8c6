#ifndef CPGAN_CORE_CPGAN_H_
#define CPGAN_CORE_CPGAN_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "community/louvain.h"
#include "core/config.h"
#include "core/decoder.h"
#include "core/discriminator.h"
#include "core/ladder_encoder.h"
#include "core/variational.h"
#include "graph/graph.h"
#include "tensor/optimizer.h"
#include "train/fault.h"

namespace cpgan::core {

/// Per-training-run statistics.
struct TrainStats {
  std::vector<float> d_loss;     // discriminator loss per epoch
  std::vector<float> g_loss;     // generator loss per epoch
  std::vector<float> clus_loss;  // clustering-consistency loss per epoch
  double train_seconds = 0.0;
  int64_t peak_bytes = 0;        // peak tensor memory during training

  /// Distinct nodes in the sensitivity coreset training actually ran on
  /// (0 when coreset training was off; see CpganConfig::coreset_size).
  int coreset_nodes = 0;

  /// True when peak_bytes exceeded CpganConfig::mem_budget_mb (only ever
  /// set when a budget was configured).
  bool budget_exceeded = false;

  // ----- Fault-tolerance counters (src/train/) -----

  /// Optimizer steps rejected by the training guard (NaN/Inf/explosion) and
  /// rolled back to the last-known-good parameters.
  int recoveries = 0;

  /// Epoch the run started at (> 0 when resumed from a checkpoint).
  int start_epoch = 0;

  /// Checkpoints successfully written during this run.
  int checkpoints_written = 0;

  /// True when training stopped early because guard_max_recoveries was
  /// reached; the model keeps its last-known-good weights.
  bool guard_exhausted = false;

  /// True when a fault-plan simulated crash stopped the run (tests only).
  bool stopped_by_fault = false;

  /// True when a SIGINT/SIGTERM stop request (train/signal.h) ended the run
  /// early; a final checkpoint was written (when checkpointing is enabled)
  /// and all sinks were flushed before Fit returned.
  bool interrupted = false;

  /// Checkpoint/weight writes that needed transient-I/O retries
  /// (util/backoff.h) before succeeding.
  int checkpoint_retries = 0;

  /// JSONL records written to config.metrics_out (0 when disabled).
  int metrics_records = 0;
};

/// Controls for the reentrant generation path used by the serving runtime
/// (src/serve/). Unlike Generate()/GenerateWithSize() — which draw from the
/// model's own RNG and therefore mutate it — GenerateWith() is const and
/// takes a per-request RNG stream, so concurrent requests against one warm
/// model are independent and bitwise reproducible per seed.
struct GenerateControls {
  /// Nodes in the generated graph; 0 = the observed graph's node count.
  int num_nodes = 0;

  /// Target edge count; 0 = the observed graph's density at `num_nodes`
  /// (max(1, m * num_nodes / n); exactly m at the observed size).
  int64_t num_edges = 0;

  /// Draw latents from the Gaussian prior even at the observed size (the
  /// GenerateWithSize path). Sizes other than the observed one always use
  /// the prior, since posterior latents only exist per observed node.
  bool from_prior = false;

  /// Assembly batch: nodes decoded per round. 0 picks the default heuristic
  /// (the serving degradation policy shrinks this under pressure).
  int subgraph_size = 0;

  /// Upper bound on assembly passes (reduced-fidelity generation lowers it;
  /// see AssemblyOptions::max_passes).
  int max_passes = 8;

  /// Cooperative cancellation, polled at phase boundaries (the serving
  /// watchdog's deadline enforcement). Unset = never abort.
  std::function<bool()> should_abort;

  /// Set to true when should_abort stopped assembly early.
  bool* aborted = nullptr;

  /// Hierarchical community-wise generation (docs/INTERNALS.md,
  /// "Hierarchical assembly"): derive the community skeleton from the
  /// learned pooled representation, decode each community independently
  /// over the thread pool, then stitch cross-community edges from the
  /// inter-community budget. Bitwise-deterministic at any thread count.
  bool hierarchical = false;
};

/// Community-Preserving GAN — the paper's primary contribution.
///
/// Wires the ladder encoder, variational module, GRU decoder, and
/// discriminator into the adversarial training loop of Section III-F, with
/// degree-proportional subgraph sampling for scalability (Section III-E) and
/// the assembly procedure of Section III-G for full-graph generation.
class Cpgan {
 public:
  explicit Cpgan(const CpganConfig& config);

  /// Trains on one observed graph. Safe to call once per instance.
  TrainStats Fit(const graph::Graph& observed);

  /// Trains on a *set* of observed graphs (the paper's problem statement
  /// allows learning from a training set): every epoch samples its subgraph
  /// from a uniformly chosen training graph, sharing all model parameters.
  /// Each graph gets its own trainable feature table. Generation and edge
  /// probabilities refer to the first graph.
  TrainStats FitMany(const std::vector<graph::Graph>& observed);

  /// Generates a graph with the observed size/edge count from the posterior
  /// latents of the observed graph (the mode evaluated in Tables III/IV).
  graph::Graph Generate();

  /// Generates a graph of arbitrary size from the Gaussian prior
  /// (Section III-G; "new graphs of arbitrary sizes").
  graph::Graph GenerateWithSize(int num_nodes, int64_t num_edges);

  /// Reentrant generation with a caller-owned RNG stream: const and safe to
  /// call from any number of threads at once (the serving runtime decodes
  /// its requests concurrently; the thread pool accepts regions from several
  /// callers). Observed-size and hierarchical outputs decode from the stored
  /// posterior latents, so no call runs the encoder.
  graph::Graph GenerateWith(const GenerateControls& controls,
                            util::Rng& rng) const;

  /// Latent features of the observed graph under the posterior means, one
  /// n x latent matrix per hierarchy level. Computed by one encoder pass
  /// whenever the weights change (end of training, WarmStart, LoadWeights)
  /// and stored with the model.
  const std::vector<tensor::Matrix>& PosteriorMeanLatents() const;

  /// Assembly over precomputed latents (posterior means or prior draws).
  /// `num_nodes` must match the latents' row count.
  graph::Graph GenerateFromLatents(const std::vector<tensor::Matrix>& latents,
                                   int num_nodes, int64_t num_edges,
                                   const GenerateControls& controls,
                                   util::Rng& rng) const;

  /// Community label per observed node from the learned pooled
  /// representation: the argmax of the encoder's level-0 assignment matrix
  /// (trained against the Louvain targets), falling back to the Louvain
  /// partition itself when pooling is disabled. Stored by the same encoder
  /// pass as PosteriorMeanLatents.
  const std::vector<int>& LearnedCommunityLabels() const;

  /// Hierarchical community-wise generation over precomputed observed-size
  /// latents (docs/INTERNALS.md, "Hierarchical assembly"): output nodes are
  /// split into communities proportionally to `community_labels` (sizes
  /// scaled to `num_nodes`, which may exceed the observed count), each
  /// output node borrows the latent row of an observed member of its
  /// community, the inter-community edge-budget matrix comes from a decoded
  /// probe of the block densities, per-community decodes fan out over the
  /// thread pool with per-community RNG streams, and cross-community edges
  /// are stitched from boundary-node scores. Bitwise-deterministic at any
  /// thread count for a fixed `rng` seed.
  graph::Graph GenerateHierarchicalFromLatents(
      const std::vector<tensor::Matrix>& latents,
      const std::vector<int>& community_labels, int num_nodes,
      int64_t num_edges, const GenerateControls& controls,
      util::Rng& rng) const;

  /// Builds the model architecture for `observed` and restores the full
  /// parameter set from a training checkpoint, without running any training
  /// epochs — the warm-load path of the serving model registry. The
  /// checkpoint's CRCs and architecture hash are validated before any
  /// parameter changes; on failure the model stays untrained and `error`
  /// (if non-null) explains why. The graph must match the one the
  /// checkpoint was trained on (the architecture hash covers its size).
  bool WarmStart(const graph::Graph& observed,
                 const std::string& checkpoint_path,
                 std::string* error = nullptr);

  /// Edge probability for each node pair under the trained
  /// reconstruction path (used for NLL evaluation, Table V).
  std::vector<double> EdgeProbabilities(const std::vector<graph::Edge>& pairs);

  const CpganConfig& config() const { return config_; }
  int64_t ParameterCount() const;
  bool trained() const { return trained_; }

  /// Persists the trained weights (all module parameters plus the trainable
  /// node-feature table) to `path`. Returns false (with the reason logged)
  /// on an untrained model or IO failure.
  bool SaveWeights(const std::string& path) const;

  /// Restores weights saved by SaveWeights into this model (and re-encodes
  /// the observed graph under them). The model must have been trained (or
  /// at least Fit) on a graph with identical shape parameters so the
  /// architectures match. Returns false on mismatch/IO failure with the
  /// reason logged.
  bool LoadWeights(const std::string& path);

  /// Arms resumption from a training checkpoint written by a previous run
  /// with `checkpoint_dir` set: the next Fit/FitMany call restores the
  /// checkpointed parameters and continues from its epoch instead of epoch
  /// 0. The file's checksums are validated immediately; returns false (with
  /// the reason logged) on a missing, corrupt, or wrong-version file, in
  /// which case the next Fit trains from scratch. Shape/architecture
  /// validation happens inside Fit once the modules exist.
  bool ResumeFrom(const std::string& checkpoint_path);

  /// Installs a deterministic fault-injection plan for the next Fit call
  /// (test harness for the guard/checkpoint recovery paths; see
  /// train/fault.h). Call before Fit.
  void SetFaultPlan(const train::FaultPlan& plan) { fault_plan_ = plan; }

 private:
  /// Derives pooling sizes from the training subgraph size if unset.
  std::vector<int> ResolvePoolSizes(int subgraph_nodes) const;

  /// Shared model construction for Fit/FitMany and WarmStart: observed-graph
  /// context, spectral features, Louvain targets, and all modules.
  void BuildModel(const std::vector<graph::Graph>& graphs);

  /// The training loop of FitMany. Returns with its optimizers, guard and
  /// epoch state released.
  TrainStats Train(const std::vector<graph::Graph>& graphs);

  /// Builds the observed graph's normalized adjacency and runs one encoder
  /// pass under the current weights, storing the posterior-mean latents and
  /// the learned community labels. Called after every weight change.
  void EncodeObserved();

  /// Every trainable parameter in checkpoint order (modules, then the
  /// primary feature table, then per-extra-graph feature tables).
  std::vector<tensor::Tensor> CollectAllParams() const;

  /// Per-graph training context for multi-graph fitting.
  struct TrainContext {
    graph::Graph graph{0};
    tensor::Tensor features;                    // trainable, n x feature_dim
    std::vector<std::vector<int>> targets;      // per pooling step
  };

  /// Clustering-consistency loss over the assignment matrices (Section
  /// III-F2): -sum_l mean_i log S^l[i, y^l_i]. `targets` are the remapped
  /// community labels of the graph the subgraph came from. `node_weights`
  /// (empty = unweighted) are the coreset importance weights of the batch
  /// nodes; when present, the level-0 per-node NLL terms are weighted and
  /// normalized by `level0_inv_norm` (losses.h) and the coarse-level
  /// majority votes are weight-tallied.
  tensor::Tensor ClusteringLoss(
      const std::vector<tensor::Tensor>& assignments,
      const std::vector<int>& node_ids,
      const std::vector<std::vector<int>>& targets,
      const std::vector<float>& node_weights, float level0_inv_norm) const;

  /// Decoder pass over constant latents restricted to `ids`.
  tensor::Matrix ScoreSubgraph(const std::vector<tensor::Matrix>& latents,
                               const std::vector<int>& ids) const;

  /// Fingerprint of the architecture-relevant config fields, stored in
  /// checkpoints so resuming into a mismatched model fails loudly.
  uint64_t ArchitectureHash() const;

  CpganConfig config_;
  util::Rng rng_;
  bool trained_ = false;
  train::FaultPlan fault_plan_;
  /// Pending checkpoint to restore at the top of the next Fit (ResumeFrom).
  std::string resume_from_;

  // Observed-graph context (populated by Fit).
  std::unique_ptr<graph::Graph> observed_;
  /// Trainable per-node input features (n x feature_dim), initialized from
  /// the spectral embedding of A. The paper's default X is the identity
  /// matrix, i.e. a free embedding row per node; a trainable table is the
  /// subgraph-sampling-compatible equivalent (rows are gathered per batch),
  /// warm-started with X(A)'s spectral structure.
  tensor::Tensor features_;
  community::LouvainResult louvain_;
  /// targets_by_level_[l][v]: community label of original node v used to
  /// constrain pooling step l, remapped into [0, pool_sizes[l]).
  std::vector<std::vector<int>> targets_by_level_;
  /// Additional training graphs beyond the primary one (FitMany).
  std::vector<TrainContext> extra_contexts_;
  int effective_levels_ = 1;

  /// Stored by EncodeObserved (see PosteriorMeanLatents and
  /// LearnedCommunityLabels).
  std::vector<tensor::Matrix> posterior_latents_;
  std::vector<int> community_labels_;

  /// Horvitz-Thompson importance weights of the coreset nodes (aligned with
  /// the relabeled coreset graph's node ids; empty when coreset training is
  /// off) and the full graph's node count they normalize against.
  std::vector<float> coreset_weights_;
  int coreset_full_nodes_ = 0;

  // Modules.
  std::unique_ptr<LadderEncoder> encoder_;
  std::unique_ptr<VariationalInference> vae_;
  std::unique_ptr<GraphDecoder> decoder_;
  std::unique_ptr<Discriminator> discriminator_;
};

}  // namespace cpgan::core

#endif  // CPGAN_CORE_CPGAN_H_
