#ifndef CPGAN_CORE_CPGAN_H_
#define CPGAN_CORE_CPGAN_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/decoder.h"
#include "core/discriminator.h"
#include "core/ladder_encoder.h"
#include "core/variational.h"
#include "graph/graph.h"
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

  /// Never set by Cpgan: the guard has no recovery cap. Kept only because
  /// perfbench reads it.
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

  /// Cooperative cancellation, polled at assembly's phase boundaries (the
  /// server passes its request deadline). When it fires, generation returns
  /// the partial graph built so far. Unset = never abort.
  std::function<bool()> should_abort;

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
  /// probabilities refer to the first graph. The model keeps the graphs.
  TrainStats FitMany(std::vector<graph::Graph> graphs);

  /// Generates a graph with the observed size/edge count from the posterior
  /// latents of the observed graph (the mode evaluated in Tables III/IV).
  graph::Graph Generate();

  /// Generates a graph of arbitrary size from the Gaussian prior
  /// (Section III-G; "new graphs of arbitrary sizes").
  graph::Graph GenerateWithSize(int num_nodes, int64_t num_edges);

  /// Reentrant generation with a caller-owned RNG stream: const and safe to
  /// call from any number of threads at once (the serving runtime decodes
  /// its requests concurrently; the thread pool accepts regions from several
  /// callers). Observed-size flat and all hierarchical outputs score from
  /// the stored edge-embedding table, so they run neither the encoder nor
  /// the decoder; a prior-latent request runs one decoder pass over its
  /// noise latents.
  graph::Graph GenerateWith(const GenerateControls& controls,
                            util::Rng& rng) const;

  /// Latent features of the observed graph under the posterior means, one
  /// n x latent matrix per hierarchy level. Computed by one encoder pass
  /// whenever the weights change (end of training, WarmStart, LoadWeights)
  /// and stored with the model.
  const std::vector<tensor::Matrix>& PosteriorMeanLatents() const;

  /// Assembly over precomputed latents (posterior means or prior draws).
  /// `num_nodes` must match the latents' row count. Decodes the latents
  /// into an edge-embedding table once, then scores every chunk from it.
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
  /// are stitched from boundary-node scores. The latents are decoded into
  /// an edge-embedding table once; the probe, every community and every
  /// stitch pair score from it. Bitwise-deterministic at any thread count
  /// for a fixed `rng` seed.
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
  /// reconstruction path (used for NLL evaluation, Table V), read from the
  /// stored edge-embedding table with double-precision dot products. Both
  /// ids of every pair must be observed node ids (CHECK-fails otherwise).
  std::vector<double> EdgeProbabilities(
      const std::vector<graph::Edge>& pairs) const;

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
  /// One training graph. contexts_[0] is the observed graph (under coreset
  /// training, the coreset's induced subgraph); FitMany's further graphs
  /// follow in order. All of them share every module parameter.
  struct TrainContext {
    graph::Graph graph{0};
    /// Trainable input features (n x feature_dim), warm-started from the
    /// spectral embedding of A: the paper's identity X (a free row per node)
    /// in a form whose rows a sampled batch can gather.
    tensor::Tensor features;
    /// targets[l][v]: community label of node v that constrains pooling
    /// step l, remapped into [0, pool_sizes[l]).
    std::vector<std::vector<int>> targets;
    /// Coreset training only (else empty): each node's Horvitz-Thompson
    /// weight, and the full graph's node count they normalize against.
    std::vector<float> node_weights;
    int full_nodes = 0;
  };

  /// Train's state and one epoch's batch (cpgan.cc); neither outlives it.
  struct TrainState;
  struct Batch;

  /// Derives the pooling sizes from the training subgraph size.
  std::vector<int> ResolvePoolSizes(int subgraph_nodes) const;

  /// Model construction for Train and WarmStart over contexts_' graphs:
  /// each graph's feature table and Louvain targets, then all modules.
  void BuildModel();

  /// The epoch loop of FitMany over the steps below. Returns with its
  /// optimizers, guard and epoch state released.
  TrainStats Train(std::vector<graph::Graph> graphs);

  // Train's steps, each under its trace span (docs/INTERNALS.md, "The
  // training loop"): train/coreset_sample, train/sample, train/disc_step
  // (eqs. 16-17) and train/gen_step (eqs. 18-19 merged). TrainState holds
  // the guarded update both steps end with, and the checkpoint.
  void SampleCoreset();
  Batch SampleBatch();
  void DiscriminatorStep(TrainState& s, const Batch& batch, bool prior_epoch,
                         int epoch);
  void GeneratorStep(TrainState& s, const Batch& batch, bool prior_epoch,
                     int epoch);

  /// Decode `z`, sigmoid, dense re-encode over `x`, discriminator logit.
  /// `detach` stops the gradient at the probabilities.
  tensor::Tensor FakeLogit(const std::vector<tensor::Tensor>& z,
                           const tensor::Tensor& x, bool detach) const;
  /// One k x latent_dim draw from the Gaussian prior per level.
  std::vector<tensor::Tensor> SamplePrior(int k);

  /// Builds the observed graph's normalized adjacency and runs one encoder
  /// pass under the current weights, storing the posterior-mean latents,
  /// the learned community labels and the edge-embedding table the
  /// decoder makes of those latents. Called after every weight change.
  void EncodeObserved();

  /// Every trainable parameter in checkpoint order: the modules, then each
  /// training graph's feature table in FitMany order.
  std::vector<tensor::Tensor> CollectAllParams() const;

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

  /// GenerateFromLatents and GenerateHierarchicalFromLatents over an
  /// edge-embedding table (GraphDecoder::EmbeddingTable) instead of latents.
  graph::Graph GenerateFromTable(const tensor::Matrix& table, int num_nodes,
                                 int64_t num_edges,
                                 const GenerateControls& controls,
                                 util::Rng& rng) const;
  graph::Graph GenerateHierarchicalFromTable(
      const tensor::Matrix& table, const std::vector<int>& community_labels,
      int num_nodes, int64_t num_edges, const GenerateControls& controls,
      util::Rng& rng) const;

  /// Fingerprint of the architecture-relevant config fields, stored in
  /// checkpoints so resuming into a mismatched model fails loudly.
  uint64_t ArchitectureHash() const;

  CpganConfig config_;
  util::Rng rng_;
  bool trained_ = false;
  train::FaultPlan fault_plan_;
  /// Pending checkpoint to restore at the top of the next Fit (ResumeFrom).
  std::string resume_from_;

  /// The training graphs (set by FitMany and WarmStart).
  std::vector<TrainContext> contexts_;
  /// The observed graph's final Louvain partition: its community labels
  /// when pooling is off (CPGAN-noH; see LearnedCommunityLabels).
  std::vector<int> louvain_labels_;
  int effective_levels_ = 1;

  /// Stored by EncodeObserved (see PosteriorMeanLatents and
  /// LearnedCommunityLabels). `edge_table_` is the decoder's
  /// edge-embedding table of the posterior latents, n x hidden: every
  /// posterior and hierarchical generation, and EdgeProbabilities, score
  /// from it.
  std::vector<tensor::Matrix> posterior_latents_;
  std::vector<int> community_labels_;
  tensor::Matrix edge_table_;

  // Modules.
  std::unique_ptr<LadderEncoder> encoder_;
  std::unique_ptr<VariationalInference> vae_;
  std::unique_ptr<GraphDecoder> decoder_;
  std::unique_ptr<Discriminator> discriminator_;
};

}  // namespace cpgan::core

#endif  // CPGAN_CORE_CPGAN_H_
