#include "core/cpgan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <unordered_map>

#include "community/louvain.h"
#include "core/assembly.h"
#include "core/hier_assembly.h"
#include "core/losses.h"
#include "core/sampler.h"
#include "graph/spectral.h"
#include "obs/metrics.h"
#include "obs/run_logger.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/serialize.h"
#include "train/checkpoint.h"
#include "train/guard.h"
#include "train/signal.h"
#include "util/backoff.h"
#include "util/fileio.h"
#include "util/logging.h"
#include "util/memory_tracker.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cpgan::core {

namespace t = cpgan::tensor;

namespace {

/// Generator loss weights of the adversarial, mapping-consistency (L_rec)
/// and KL-prior terms (eqs. 16-19).
constexpr float kAdvWeight = 0.1f;
constexpr float kRecWeight = 1.0f;
constexpr float kKlWeight = 1e-2f;

/// Elementwise gradient clip, for adversarial stability.
constexpr float kGradClip = 5.0f;

/// Remaps raw community labels into [0, buckets) by size rank (largest
/// community -> bucket 0, ..., wrapping with modulo).
std::vector<int> RemapLabels(const std::vector<int>& labels, int buckets) {
  std::unordered_map<int, int> sizes;
  for (int label : labels) sizes[label] += 1;
  std::vector<std::pair<int, int>> ranked(sizes.begin(), sizes.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  std::unordered_map<int, int> bucket_of;
  for (size_t rank = 0; rank < ranked.size(); ++rank) {
    bucket_of[ranked[rank].first] = static_cast<int>(rank % buckets);
  }
  std::vector<int> out(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) out[i] = bucket_of[labels[i]];
  return out;
}

std::vector<int> ArgmaxRows(const t::Matrix& m) {
  std::vector<int> out(m.rows());
  for (int r = 0; r < m.rows(); ++r) {
    const float* row = m.Row(r);
    int best = 0;
    for (int c = 1; c < m.cols(); ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[r] = best;
  }
  return out;
}

/// The parameters of `modules`, module by module in list order.
std::vector<t::Tensor> ModuleParameters(
    std::initializer_list<const nn::Module*> modules) {
  std::vector<t::Tensor> params;
  for (const nn::Module* m : modules) {
    auto p = m->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

/// L2 norm over the gradients of `params` (telemetry only).
double GradNorm(const std::vector<t::Tensor>& params) {
  double sum_sq = 0.0;
  for (const t::Tensor& p : params) {
    const t::Matrix& g = p.grad();
    const float* data = g.data();
    int64_t size = static_cast<int64_t>(g.rows()) * g.cols();
    for (int64_t i = 0; i < size; ++i) {
      sum_sq += static_cast<double>(data[i]) * data[i];
    }
  }
  return std::sqrt(sum_sq);
}

/// Restores the tracing switches that FitMany may override via config.
class TraceFlagsGuard {
 public:
  TraceFlagsGuard()
      : tracing_(obs::TracingEnabled()), events_(obs::TraceEventsEnabled()) {}
  ~TraceFlagsGuard() {
    obs::SetTracingEnabled(tracing_);
    obs::SetTraceEventsEnabled(events_);
  }

 private:
  bool tracing_;
  bool events_;
};

/// The guard's loss streams. The steps' losses differ in magnitude, so each
/// has its own explosion window.
constexpr int kDiscStream = 0;
constexpr int kGenStream = 1;

/// Cpgan trains with the guard's defaults.
constexpr train::GuardConfig kGuardConfig{};

/// The encoder's normalized adjacency of `g` (Section III-C1).
std::shared_ptr<t::SparseMatrix> EncoderAdjacency(const graph::Graph& g,
                                                  bool two_hop) {
  return std::make_shared<t::SparseMatrix>(
      two_hop ? t::TwoHopNormalizedAdjacency(g.num_nodes(), g.Edges())
              : t::NormalizedAdjacency(g.num_nodes(), g.Edges()));
}

}  // namespace

/// The state of one Train call: the parameter groups and their optimizers,
/// the step guard over all of them, the checkpoint writer, the run log, and
/// what each epoch's record reads. Train owns the only instance.
struct Cpgan::TrainState {
  /// Optimizer and guard setup. A checkpoint armed by ResumeFrom is loaded
  /// here, and the learning rates catch up to its epoch.
  explicit TrainState(Cpgan& m);

  /// The update both steps end with (docs/INTERNALS.md, "Step guard"):
  /// backward, the guard's verdict, then the step or a rollback, then every
  /// gradient cleared. Returns the loss the guard judged.
  float GuardedUpdate(const t::Tensor& loss, int stream, int epoch);

  /// Writes the checkpoint of `completed_epochs`, retrying transient I/O
  /// failures with backoff, and records the write for the run log.
  void WriteCheckpoint(int completed_epochs);

  /// The learning-rate schedule (paper: x0.3 every 400 epochs).
  void DecayOnSchedule(int epoch) {
    if (config.lr_decay_every > 0 &&
        (epoch + 1) % config.lr_decay_every == 0) {
      DecayLearningRates(config.lr_decay);
    }
  }
  void DecayLearningRates(float factor) {
    opt_d.DecayLearningRate(factor);
    opt_g.DecayLearningRate(factor);
    opt_g_fast.DecayLearningRate(factor);
  }

  const CpganConfig& config;
  const train::FaultPlan& fault_plan;
  TrainStats stats;
  /// The discriminator step's parameters, and the generator step's in two
  /// groups: a slow (adversarially sensitive) one and a fast
  /// (reconstruction and memorization) one, the decoder and every feature
  /// table, at fast_lr_multiplier times the rate.
  std::vector<t::Tensor> params_d, params_g_slow, params_g_fast;
  std::vector<t::Tensor> params_g;  // slow, then fast
  /// What the guard snapshots and restores, and what checkpoints persist.
  std::vector<t::Tensor> params_all;
  t::Adam opt_d, opt_g, opt_g_fast;
  train::TrainingGuard guard;
  const uint64_t arch_hash;
  bool checkpointing;
  /// Checkpoint writes retry with backoff. The jitter RNG is a separate
  /// stream from the training RNG, so transient I/O can never perturb the
  /// numerics.
  util::Rng io_rng;
  util::BackoffPolicy io_backoff;
  obs::RunLogger run_logger;
  const t::Matrix real_target{1, 1, 1.0f};
  const t::Matrix fake_target{1, 1, 0.0f};

  /// What the epoch's run-log record reads; Train resets it every epoch.
  struct EpochCounters {
    int trips = 0, rollbacks = 0;
    int64_t enc_peak = 0, dec_peak = 0, disc_peak = 0;
    double grad_norm = 0.0;
    bool wrote_checkpoint = false;
    double checkpoint_ms = 0.0;
  } counters;
};

/// One epoch's batch: the degree-proportional node sample of one training
/// graph (Section III-E) and what both steps read of it.
struct Cpgan::Batch {
  int graph_index = 0;  // into contexts_
  std::vector<int> idx;
  int k = 0;  // idx.size()
  std::shared_ptr<t::SparseMatrix> a_hat;
  t::Tensor x;          // the sampled rows of the graph's feature table
  t::Matrix a_dense;    // 0/1 adjacency: the reconstruction target
  float pos_weight = 1.0f;
  /// Coreset batches: the nodes' importance weights (empty = unweighted)
  /// and the normalizers of the weighted node and pair terms.
  std::vector<float> weights;
  float node_inv_norm = 0.0f;
  float pair_inv_norm = 0.0f;
};

Cpgan::Cpgan(const CpganConfig& config) : config_(config), rng_(config.seed) {
  CPGAN_CHECK_GE(config_.num_levels, 1);
  CPGAN_CHECK_GE(config_.feature_dim, 1);
  if (config_.num_threads > 0) {
    util::ThreadPool::SetGlobalThreads(config_.num_threads);
  }
}

std::vector<int> Cpgan::ResolvePoolSizes(int subgraph_nodes) const {
  std::vector<int> sizes;
  int levels = config_.use_hierarchy ? config_.num_levels : 1;
  int current = std::min(config_.max_pool_size,
                         std::max(2, subgraph_nodes / 4));
  for (int l = 0; l + 1 < levels; ++l) {
    sizes.push_back(std::max(2, current));
    current = std::max(2, current / 4);
  }
  return sizes;
}

TrainStats Cpgan::Fit(const graph::Graph& observed) {
  return FitMany({observed});
}

void Cpgan::BuildModel() {
  int ns = std::min(config_.subgraph_size, contexts_[0].graph.num_nodes());
  CPGAN_CHECK_GE(ns, 2);
  std::vector<int> pool_sizes = ResolvePoolSizes(ns);
  effective_levels_ = static_cast<int>(pool_sizes.size()) + 1;

  for (TrainContext& ctx : contexts_) {
    ctx.features = t::Tensor(
        graph::SpectralEmbedding(ctx.graph, config_.feature_dim, rng_),
        /*requires_grad=*/true);
    community::LouvainResult louvain = community::Louvain(ctx.graph, rng_);
    // Per-pooling-step community targets from the Louvain hierarchy: step l
    // is constrained by a Louvain level of matching granularity (DESIGN.md
    // §2.5).
    int louvain_levels = static_cast<int>(louvain.levels.size());
    for (size_t l = 0; l < pool_sizes.size(); ++l) {
      int lv = std::min(static_cast<int>(l), louvain_levels - 1);
      ctx.targets.push_back(
          RemapLabels(louvain.levels[lv].labels(), pool_sizes[l]));
    }
    if (&ctx == &contexts_[0]) {
      louvain_labels_ = louvain.FinalPartition().labels();
    }
  }

  encoder_ = std::make_unique<LadderEncoder>(config_.feature_dim,
                                             config_.hidden_dim, pool_sizes,
                                             rng_);
  vae_ = std::make_unique<VariationalInference>(
      config_.hidden_dim, config_.hidden_dim, config_.latent_dim, rng_);
  decoder_ = std::make_unique<GraphDecoder>(config_.latent_dim,
                                            config_.hidden_dim,
                                            effective_levels_,
                                            config_.concat_decoder, rng_);
  discriminator_ = std::make_unique<Discriminator>(effective_levels_,
                                                   config_.hidden_dim, rng_);
}

std::vector<t::Tensor> Cpgan::CollectAllParams() const {
  std::vector<t::Tensor> params = ModuleParameters(
      {encoder_.get(), vae_.get(), decoder_.get(), discriminator_.get()});
  for (const TrainContext& ctx : contexts_) params.push_back(ctx.features);
  return params;
}

bool Cpgan::WarmStart(const graph::Graph& observed,
                      const std::string& checkpoint_path, std::string* error) {
  CPGAN_CHECK(!trained_);
  contexts_.clear();
  contexts_.emplace_back().graph = observed;
  BuildModel();
  std::vector<t::Tensor> params_all = CollectAllParams();
  train::CheckpointMeta meta;
  std::string err;
  if (!train::LoadCheckpoint(checkpoint_path, &meta, params_all,
                             ArchitectureHash(), &err)) {
    CPGAN_LOG(Error) << "WarmStart(" << checkpoint_path << "): " << err;
    if (error != nullptr) *error = err;
    return false;
  }
  trained_ = true;
  EncodeObserved();
  return true;
}

TrainStats Cpgan::FitMany(std::vector<graph::Graph> graphs) {
  TrainStats stats = Train(std::move(graphs));
  // Encoded only now that Train has released its optimizers, guard and
  // epoch state: the pass must not raise the training peak.
  if (trained_) EncodeObserved();
  return stats;
}

TrainStats Cpgan::Train(std::vector<graph::Graph> graphs) {
  CPGAN_CHECK(!graphs.empty());
  CPGAN_CHECK(!trained_);
  util::Timer timer;
  util::MemoryTracker::Global().ResetPeak();
  if (config_.mem_budget_mb > 0) {
    util::MemoryTracker::Global().SetBudgetBytes(config_.mem_budget_mb << 20);
  }
  contexts_.clear();
  for (graph::Graph& g : graphs) contexts_.emplace_back().graph = std::move(g);
  SampleCoreset();

  // ----- Observability setup (src/obs/; docs/OBSERVABILITY.md) -----
  TraceFlagsGuard trace_flags_guard;
  if (config_.profile || !config_.trace_out.empty()) {
    // Only reset collected spans when this run explicitly asked for
    // tracing; a caller (e.g. bench_util) that enabled tracing itself owns
    // the collection window.
    obs::ResetTraces();
    obs::SetTracingEnabled(true);
    if (!config_.trace_out.empty()) obs::SetTraceEventsEnabled(true);
  }
  const int run_threads = util::ThreadPool::Global().num_threads();

  BuildModel();
  TrainState s(*this);
  for (int epoch = s.stats.start_epoch; epoch < config_.epochs; ++epoch) {
    CPGAN_TRACE_SPAN("train/epoch");
    util::Timer epoch_timer;
    s.counters = {};
    const Batch batch = SampleBatch();
    const bool disc_epoch =
        config_.disc_every > 0 && epoch % config_.disc_every == 0;
    const bool prior_epoch =
        config_.prior_every > 0 && epoch % config_.prior_every == 0;
    if (disc_epoch) DiscriminatorStep(s, batch, prior_epoch, epoch);
    GeneratorStep(s, batch, prior_epoch, epoch);
    s.DecayOnSchedule(epoch);

    if (config_.verbose && (epoch % 20 == 0 || epoch + 1 == config_.epochs)) {
      // Discriminator losses exist only on epochs that ran that step.
      if (disc_epoch) {
        CPGAN_LOG(Info) << "epoch " << epoch
                        << " d_loss=" << s.stats.d_loss.back()
                        << " g_loss=" << s.stats.g_loss.back()
                        << " clus=" << s.stats.clus_loss.back();
      } else {
        CPGAN_LOG(Info) << "epoch " << epoch
                        << " g_loss=" << s.stats.g_loss.back();
      }
    }

    // Periodic checkpoint at the epoch boundary (plus one after the final
    // epoch) so a killed run can resume via ResumeFrom.
    if (fault_plan_.InjectIoFailure(epoch)) {
      util::InjectAtomicWriteFailures(fault_plan_.io_fail_count);
    }
    const bool final_epoch = epoch + 1 == config_.epochs;
    if (s.checkpointing &&
        ((epoch + 1) % config_.checkpoint_every == 0 || final_epoch)) {
      s.WriteCheckpoint(epoch + 1);
    }

    if (s.run_logger.ok()) {
      obs::EpochRecord record;
      record.epoch = epoch;
      record.graph_index = batch.graph_index;
      record.has_d_loss = disc_epoch;
      if (disc_epoch) record.d_loss = s.stats.d_loss.back();
      record.g_loss = s.stats.g_loss.back();
      record.has_clus_loss = disc_epoch;
      if (disc_epoch) record.clus_loss = s.stats.clus_loss.back();
      record.grad_norm = s.counters.grad_norm;
      record.guard_trips = s.counters.trips;
      record.rollbacks = s.counters.rollbacks;
      record.wrote_checkpoint = s.counters.wrote_checkpoint;
      record.checkpoint_ms = s.counters.checkpoint_ms;
      record.peak_bytes = util::MemoryTracker::Global().peak_bytes();
      record.encoder_peak_bytes = s.counters.enc_peak;
      record.decoder_peak_bytes = s.counters.dec_peak;
      record.discriminator_peak_bytes = s.counters.disc_peak;
      record.threads = run_threads;
      record.rss_bytes = obs::CurrentRssBytes();
      record.epoch_ms = epoch_timer.Millis();
      if (s.run_logger.Log(record)) ++s.stats.metrics_records;
      if (config_.metrics_snapshot_every > 0 &&
          ((epoch + 1) % config_.metrics_snapshot_every == 0 ||
           final_epoch)) {
        s.run_logger.LogMetricsSnapshot(epoch);
      }
    }
    if (fault_plan_.StopAfter(epoch)) {
      // Simulated crash: leave the model untrained, like a killed process.
      s.stats.stopped_by_fault = true;
      break;
    }
    // Graceful SIGINT/SIGTERM shutdown (train/signal.h): finish the epoch,
    // persist a final checkpoint, and fall through to the sink flushes below
    // instead of dying mid-epoch. The model keeps its current weights.
    if (train::StopRequested()) {
      CPGAN_LOG(Info) << "stop requested; ending training after epoch "
                      << epoch;
      if (s.checkpointing && !s.counters.wrote_checkpoint) {
        s.WriteCheckpoint(epoch + 1);
      }
      s.stats.interrupted = true;
      break;
    }
  }
  trained_ = !s.stats.stopped_by_fault;
  s.stats.train_seconds = timer.Seconds();
  s.stats.peak_bytes = util::MemoryTracker::Global().peak_bytes();
  if (config_.mem_budget_mb > 0 &&
      s.stats.peak_bytes > (config_.mem_budget_mb << 20)) {
    s.stats.budget_exceeded = true;
    CPGAN_LOG(Warning) << "memory budget exceeded: peak " << s.stats.peak_bytes
                       << " bytes > " << config_.mem_budget_mb << " MiB";
  }
  s.run_logger.Close();
  if (config_.profile) std::fputs(obs::RenderProfile().c_str(), stdout);
  if (!config_.trace_out.empty() && !obs::WriteChromeTrace(config_.trace_out)) {
    CPGAN_LOG(Warning) << "failed to write trace " << config_.trace_out;
  }
  return std::move(s.stats);
}

void Cpgan::SampleCoreset() {
  // Coreset training (docs/INTERNALS.md, "Streaming ingest"): swap the
  // primary graph for the induced subgraph of a sensitivity sample before
  // anything downstream (spectral features, Louvain, the epoch loop) sees
  // it, so every per-node cost scales with the coreset, not the full graph.
  // Secondary graphs are left alone — they are small by construction.
  TrainContext& observed = contexts_[0];
  const int n = observed.graph.num_nodes();
  if (config_.coreset_size <= 1 || config_.coreset_size >= n) return;
  CPGAN_TRACE_SPAN("train/coreset_sample");
  CoresetSample coreset =
      SensitivityCoresetSample(observed.graph, config_.coreset_size, rng_);
  graph::Graph sub = observed.graph.InducedSubgraph(coreset.nodes);
  CPGAN_LOG(Info) << "coreset training: " << coreset.size() << " of " << n
                  << " nodes (" << sub.num_edges() << " of "
                  << observed.graph.num_edges()
                  << " edges), importance-weighted losses";
  observed.graph = std::move(sub);
  // The Horvitz-Thompson importance weights stay aligned with the relabeled
  // coreset node ids (InducedSubgraph preserves coreset.nodes order), so
  // the per-node loss terms can debias the coreset estimator.
  observed.node_weights.assign(coreset.weights.begin(), coreset.weights.end());
  observed.full_nodes = n;
}

Cpgan::TrainState::TrainState(Cpgan& m)
    : config(m.config_),
      fault_plan(m.fault_plan_),
      params_d(ModuleParameters({m.discriminator_.get(), m.encoder_.get()})),
      params_g_slow(ModuleParameters({m.encoder_.get(), m.vae_.get()})),
      params_g_fast([&m] {
        std::vector<t::Tensor> fast = m.decoder_->Parameters();
        for (const TrainContext& ctx : m.contexts_) {
          fast.push_back(ctx.features);
        }
        return fast;
      }()),
      params_g(params_g_slow),
      params_all(m.CollectAllParams()),
      opt_d(params_d, config.learning_rate),
      opt_g(params_g_slow, config.learning_rate),
      opt_g_fast(params_g_fast,
                 config.learning_rate * config.fast_lr_multiplier),
      guard(kGuardConfig, params_all),
      arch_hash(m.ArchitectureHash()),
      checkpointing(!config.checkpoint_dir.empty() &&
                    config.checkpoint_every > 0),
      io_rng(config.seed ^ 0xC3A5C85C97CB3127ULL) {
  params_g.insert(params_g.end(), params_g_fast.begin(), params_g_fast.end());
  stats.coreset_nodes = static_cast<int>(m.contexts_[0].node_weights.size());
  if (!m.resume_from_.empty()) {
    train::CheckpointMeta meta;
    std::string err;
    // The file's checksums were vetted in ResumeFrom; this re-parse also
    // validates shape/count against the freshly built model, so resuming
    // into a different architecture or graph fails before any training.
    CPGAN_CHECK_MSG(train::LoadCheckpoint(m.resume_from_, &meta, params_all,
                                          arch_hash, &err),
                    ("resume failed: " + err).c_str());
    stats.start_epoch = std::min(meta.epoch, config.epochs);
    // Catch the learning-rate schedule up to the resumed epoch.
    for (int e = 0; e < stats.start_epoch; ++e) DecayOnSchedule(e);
    CPGAN_LOG(Info) << "resumed from " << m.resume_from_ << " at epoch "
                    << stats.start_epoch;
    m.resume_from_.clear();
  }
  if (checkpointing && !util::MakeDirs(config.checkpoint_dir)) {
    CPGAN_LOG(Warning) << "cannot create checkpoint dir '"
                       << config.checkpoint_dir << "'; checkpoints disabled";
    checkpointing = false;
  }
  if (!config.metrics_out.empty()) run_logger.Open(config.metrics_out);
}

Cpgan::Batch Cpgan::SampleBatch() {
  CPGAN_TRACE_SPAN("train/sample");
  Batch b;
  // Uniformly pick a training graph (multi-graph fitting); the draw is made
  // even when there is only one.
  b.graph_index = static_cast<int>(
      rng_.UniformInt(static_cast<int64_t>(contexts_.size())));
  const TrainContext& ctx = contexts_[b.graph_index];
  const int ns = std::min({config_.subgraph_size,
                           contexts_[0].graph.num_nodes(),
                           ctx.graph.num_nodes()});
  b.idx = DegreeProportionalSample(ctx.graph, ns, rng_);
  const graph::Graph sub = ctx.graph.InducedSubgraph(b.idx);
  b.a_hat = EncoderAdjacency(sub, config_.use_two_hop_adjacency);
  b.x = t::GatherRows(ctx.features, b.idx);

  // Dense 0/1 adjacency target for the reconstruction likelihood.
  b.k = sub.num_nodes();
  b.a_dense = t::Matrix(b.k, b.k);
  for (const auto& [u, v] : sub.Edges()) {
    b.a_dense.At(u, v) = 1.0f;
    b.a_dense.At(v, u) = 1.0f;
  }
  double m_s = static_cast<double>(sub.num_edges());
  b.pos_weight = static_cast<float>(std::clamp(
      (static_cast<double>(b.k) * b.k - 2.0 * m_s) / std::max(1.0, 2.0 * m_s),
      1.0, 8.0));

  // Coreset importance weights for this batch. The normalizers are the full
  // graph's node count scaled by the batch's fraction of the coreset, so
  // with unit weights they reduce to the plain 1/k and 1/k^2 means.
  if (!ctx.node_weights.empty()) {
    b.weights.resize(b.idx.size());
    for (size_t i = 0; i < b.idx.size(); ++i) {
      b.weights[i] = ctx.node_weights[b.idx[i]];
    }
    const double denom = static_cast<double>(ctx.full_nodes) *
                         static_cast<double>(b.k) / ctx.graph.num_nodes();
    b.node_inv_norm = static_cast<float>(1.0 / denom);
    b.pair_inv_norm = static_cast<float>(1.0 / (denom * denom));
  }
  return b;
}

std::vector<t::Tensor> Cpgan::SamplePrior(int k) {
  std::vector<t::Tensor> z;
  for (int l = 0; l < effective_levels_; ++l) {
    t::Matrix noise(k, config_.latent_dim);
    noise.FillNormal(rng_, 1.0f);
    z.push_back(t::Constant(std::move(noise)));
  }
  return z;
}

t::Tensor Cpgan::FakeLogit(const std::vector<t::Tensor>& z, const t::Tensor& x,
                           bool detach) const {
  t::Tensor probs = t::Sigmoid(decoder_->EdgeLogits(decoder_->DecodeNodes(z)));
  if (detach) probs = probs.Detach();
  return discriminator_->ForwardLogit(encoder_->ForwardDense(probs, x).readout);
}

void Cpgan::DiscriminatorStep(TrainState& s, const Batch& b, bool prior_epoch,
                              int epoch) {
  CPGAN_TRACE_SPAN("train/disc_step");
  EncoderOutput enc_real = encoder_->Forward(b.a_hat, b.x);
  t::Tensor d_real = discriminator_->ForwardLogit(enc_real.readout);
  t::Tensor l_clus =
      ClusteringLoss(enc_real.assignments, b.idx,
                     contexts_[b.graph_index].targets, b.weights,
                     b.node_inv_norm);

  // Fake graphs from the posterior path, and every prior_every epochs from
  // the prior path too; their probabilities are detached.
  VariationalOutput vae_out =
      vae_->Forward(enc_real.z_rec, rng_, config_.use_variational);
  t::Tensor fake_losses = t::BceWithLogits(
      FakeLogit(vae_out.z_vae, b.x, /*detach=*/true), s.fake_target);
  if (prior_epoch) {
    t::Tensor d_prior = FakeLogit(SamplePrior(b.k), b.x, /*detach=*/true);
    fake_losses = t::Scale(
        t::Add(fake_losses, t::BceWithLogits(d_prior, s.fake_target)), 0.5f);
  }
  t::Tensor loss_d =
      t::Add(t::Add(t::BceWithLogits(d_real, s.real_target), fake_losses),
             t::Scale(l_clus, config_.clus_weight));
  s.stats.d_loss.push_back(s.GuardedUpdate(loss_d, kDiscStream, epoch));
  s.stats.clus_loss.push_back(l_clus.Scalar());
}

void Cpgan::GeneratorStep(TrainState& s, const Batch& b, bool prior_epoch,
                          int epoch) {
  CPGAN_TRACE_SPAN("train/gen_step");
  // Each forward phase runs inside a MemoryRegion so its peak live bytes
  // are attributable in the run log (Table IX's analogue).
  EncoderOutput enc;
  VariationalOutput vae_out;
  {
    util::MemoryRegion region;
    enc = encoder_->Forward(b.a_hat, b.x);
    vae_out = vae_->Forward(enc.z_rec, rng_, config_.use_variational);
    s.counters.enc_peak = region.PeakBytes();
  }
  t::Tensor h, logits, probs;
  {
    util::MemoryRegion region;
    h = decoder_->DecodeNodes(vae_out.z_vae);
    logits = decoder_->EdgeLogits(h);
    probs = t::Sigmoid(logits);
    s.counters.dec_peak = region.PeakBytes();
  }

  EncoderOutput enc_fake;
  t::Tensor adv;
  {
    util::MemoryRegion region;
    enc_fake = encoder_->ForwardDense(probs, b.x);
    adv = t::BceWithLogits(discriminator_->ForwardLogit(enc_fake.readout),
                           s.real_target);
    if (prior_epoch) {
      t::Tensor d_prior = FakeLogit(SamplePrior(b.k), b.x, /*detach=*/false);
      adv = t::Scale(
          t::Add(adv, t::BceWithLogits(d_prior, s.real_target)), 0.5f);
    }
    s.counters.disc_peak = region.PeakBytes();
  }

  t::Tensor l_rec = t::MseLoss(enc.readout, enc_fake.readout);
  // Coreset batches debias the reconstruction likelihood with the pair
  // weights w_i * w_j; the unweighted path is bitwise-unchanged.
  t::Tensor l_bce =
      b.weights.empty()
          ? t::BceWithLogits(logits, b.a_dense, b.pos_weight)
          : WeightedBceWithLogits(logits, b.a_dense, b.weights, b.pos_weight,
                                  b.pair_inv_norm);

  t::Tensor loss_g = t::Add(
      t::Add(t::Scale(adv, kAdvWeight), t::Scale(l_rec, kRecWeight)),
      t::Add(t::Scale(vae_out.kl, kKlWeight),
             t::Scale(l_bce, config_.bce_weight)));
  s.stats.g_loss.push_back(s.GuardedUpdate(loss_g, kGenStream, epoch));
}

float Cpgan::TrainState::GuardedUpdate(const t::Tensor& loss, int stream,
                                       int epoch) {
  const bool generator = stream == kGenStream;
  const std::vector<t::Tensor>& params = generator ? params_g : params_d;
  {
    CPGAN_TRACE_SPAN("train/backward");
    t::Backward(loss);
  }
  float value = loss.Scalar();
  if (generator) {
    if (run_logger.ok()) counters.grad_norm = GradNorm(params);
    // Deterministic fault injection (tests only; a default plan is inert).
    if (fault_plan.InjectNanGrad(epoch)) {
      train::PoisonGradient(params, fault_plan.nan_grad_param);
    }
    if (fault_plan.InjectInfLoss(epoch)) {
      value = std::numeric_limits<float>::infinity();
    }
  }
  train::StepVerdict verdict = guard.Inspect(value, params, stream);
  if (verdict == train::StepVerdict::kOk) {
    CPGAN_TRACE_SPAN("train/optimizer");
    t::ClipGradients(params, kGradClip);
    if (generator) {
      opt_g.Step();
      opt_g_fast.Step();
    } else {
      opt_d.Step();
    }
    guard.CommitGood(value, stream);
  } else {
    // The epoch continues with the restored weights.
    guard.Recover();
    DecayLearningRates(kGuardConfig.lr_decay_on_recovery);
    ++stats.recoveries;
    ++counters.trips;
    if (guard.has_snapshot()) ++counters.rollbacks;
    CPGAN_LOG(Warning) << "guard: "
                       << (generator ? "generator" : "discriminator")
                       << " step rejected at epoch " << epoch << " ("
                       << train::StepVerdictName(verdict)
                       << ", loss=" << value << "); "
                       << (guard.has_snapshot()
                               ? "rolled back to last good parameters"
                               : "no snapshot yet, step skipped");
  }
  // The fake-graph passes deposit gradients in modules the stepped
  // optimizers do not own.
  for (t::Tensor& p : params_all) p.ZeroGrad();
  return value;
}

void Cpgan::TrainState::WriteCheckpoint(int completed_epochs) {
  util::Timer timer;
  train::CheckpointMeta meta;
  meta.epoch = completed_epochs;
  meta.config_hash = arch_hash;
  std::string path =
      train::CheckpointPath(config.checkpoint_dir, completed_epochs);
  util::RetryResult retried = util::RetryWithBackoff(
      io_backoff, io_rng,
      [&] { return train::SaveCheckpoint(path, meta, params_all); });
  stats.checkpoint_retries += retried.retries();
  if (retried.ok) {
    ++stats.checkpoints_written;
    if (retried.retries() > 0) {
      CPGAN_LOG(Warning) << "checkpoint " << path << " written after "
                         << retried.retries() << " transient I/O retries";
    }
  } else {
    CPGAN_LOG(Warning) << "failed to write checkpoint " << path << " after "
                       << retried.attempts << " attempts";
  }
  counters.wrote_checkpoint = retried.ok;
  counters.checkpoint_ms = timer.Millis();
}

uint64_t Cpgan::ArchitectureHash() const {
  std::vector<int64_t> fields = {
      config_.feature_dim,   config_.hidden_dim,
      config_.latent_dim,    config_.num_levels,
      config_.max_pool_size, config_.use_hierarchy ? 1 : 0,
      config_.concat_decoder ? 1 : 0,
      contexts_[0].graph.num_nodes(),
      static_cast<int64_t>(contexts_.size()) - 1};
  return train::HashFields(fields);
}

bool Cpgan::ResumeFrom(const std::string& checkpoint_path) {
  train::CheckpointMeta meta;
  std::string err;
  // Architecture validation against the live hash happens inside Fit (the
  // modules do not exist yet); this pass catches unreadable, truncated,
  // corrupt, and wrong-version files immediately.
  if (!train::ValidateCheckpoint(checkpoint_path, &meta, 0, &err)) {
    CPGAN_LOG(Error) << "ResumeFrom(" << checkpoint_path
                     << "): rejected: " << err;
    resume_from_.clear();
    return false;
  }
  resume_from_ = checkpoint_path;
  return true;
}

tensor::Tensor Cpgan::ClusteringLoss(
    const std::vector<t::Tensor>& assignments,
    const std::vector<int>& node_ids,
    const std::vector<std::vector<int>>& targets,
    const std::vector<float>& node_weights, float level0_inv_norm) const {
  t::Tensor loss = t::ScalarConstant(0.0f);
  if (assignments.empty()) return loss;

  // Level 0: fine nodes labeled directly. Coreset batches weight each
  // node's NLL term by its importance weight (unbiased per-node estimator;
  // see losses.h); otherwise the plain mean.
  std::vector<int> labels(node_ids.size());
  for (size_t i = 0; i < node_ids.size(); ++i) {
    labels[i] = targets[0][node_ids[i]];
  }
  loss = t::Add(loss, node_weights.empty()
                          ? AssignmentNll(assignments[0], labels)
                          : WeightedAssignmentNll(assignments[0], labels,
                                                  node_weights,
                                                  level0_inv_norm));

  // Deeper levels: coarse node j inherits the majority label (at the coarser
  // Louvain level) of the fine nodes whose argmax assignment is j. The vote
  // uses the forward values only (stop-gradient); coreset batches weight
  // each vote by the node's importance weight (unit weights leave the
  // tallies unchanged).
  std::vector<int> node_to_coarse = ArgmaxRows(assignments[0].value());
  for (size_t l = 1; l < assignments.size(); ++l) {
    int coarse_count = assignments[l].rows();
    int buckets = assignments[l].cols();
    std::vector<std::unordered_map<int, double>> votes(coarse_count);
    for (size_t i = 0; i < node_ids.size(); ++i) {
      int coarse = std::min(node_to_coarse[i], coarse_count - 1);
      votes[coarse][targets[l][node_ids[i]]] +=
          node_weights.empty() ? 1.0 : node_weights[i];
    }
    std::vector<int> coarse_labels(coarse_count, 0);
    for (int j = 0; j < coarse_count; ++j) {
      double best_count = -1.0;
      for (const auto& [label, count] : votes[j]) {
        if (count > best_count) {
          best_count = count;
          coarse_labels[j] = std::min(label, buckets - 1);
        }
      }
    }
    loss = t::Add(loss, AssignmentNll(assignments[l], coarse_labels));

    // Chain the argmax mapping for the next level.
    std::vector<int> coarse_to_next = ArgmaxRows(assignments[l].value());
    for (size_t i = 0; i < node_to_coarse.size(); ++i) {
      node_to_coarse[i] =
          coarse_to_next[std::min(node_to_coarse[i], coarse_count - 1)];
    }
  }
  return loss;
}

void Cpgan::EncodeObserved() {
  CPGAN_TRACE_SPAN("core/encode_observed");
  const TrainContext& observed = contexts_[0];
  EncoderOutput enc = encoder_->Forward(
      EncoderAdjacency(observed.graph, config_.use_two_hop_adjacency),
      observed.features.Detach());
  // sample=false keeps the posterior means and draws nothing, so the local
  // RNG is never advanced and the result is a pure function of the weights.
  util::Rng unused_rng(0);
  VariationalOutput vae_out =
      vae_->Forward(enc.z_rec, unused_rng, /*sample=*/false);
  posterior_latents_.clear();
  for (const t::Tensor& z : vae_out.z_vae) {
    posterior_latents_.push_back(z.value());
  }
  edge_table_ = decoder_->EmbeddingTable(posterior_latents_);
  // Pooling disabled (CPGAN-noH): the Louvain targets are the learned
  // representation's training signal; use them directly.
  community_labels_ = enc.assignments.empty()
                          ? louvain_labels_
                          : ArgmaxRows(enc.assignments[0].value());
}

const std::vector<t::Matrix>& Cpgan::PosteriorMeanLatents() const {
  CPGAN_CHECK(trained_);
  return posterior_latents_;
}

const std::vector<int>& Cpgan::LearnedCommunityLabels() const {
  CPGAN_CHECK(trained_);
  return community_labels_;
}

graph::Graph Cpgan::GenerateFromLatents(const std::vector<t::Matrix>& latents,
                                        int num_nodes, int64_t num_edges,
                                        const GenerateControls& controls,
                                        util::Rng& rng) const {
  CPGAN_CHECK(trained_);
  CPGAN_CHECK(!latents.empty());
  return GenerateFromTable(decoder_->EmbeddingTable(latents), num_nodes,
                           num_edges, controls, rng);
}

graph::Graph Cpgan::GenerateFromTable(const t::Matrix& table, int num_nodes,
                                      int64_t num_edges,
                                      const GenerateControls& controls,
                                      util::Rng& rng) const {
  CPGAN_CHECK_EQ(table.rows(), num_nodes);
  AssemblyOptions options;
  if (controls.subgraph_size > 0) {
    options.subgraph_size = controls.subgraph_size;
  } else if (controls.from_prior ||
             num_nodes != contexts_[0].graph.num_nodes()) {
    options.subgraph_size = std::max(config_.subgraph_size, 256);
  } else {
    options.subgraph_size =
        std::min(num_nodes, std::max(config_.subgraph_size, 1024));
  }
  options.max_passes = controls.max_passes;
  options.should_abort = controls.should_abort;
  return AssembleGraph(
      num_nodes, num_edges,
      [this, &table](const std::vector<int>& ids) {
        return decoder_->ScoreBlock(table, ids);
      },
      options, rng);
}

graph::Graph Cpgan::GenerateHierarchicalFromLatents(
    const std::vector<t::Matrix>& latents,
    const std::vector<int>& community_labels, int num_nodes,
    int64_t num_edges, const GenerateControls& controls,
    util::Rng& rng) const {
  CPGAN_CHECK(trained_);
  CPGAN_CHECK(!latents.empty());
  return GenerateHierarchicalFromTable(decoder_->EmbeddingTable(latents),
                                       community_labels, num_nodes, num_edges,
                                       controls, rng);
}

graph::Graph Cpgan::GenerateHierarchicalFromTable(
    const t::Matrix& table, const std::vector<int>& community_labels,
    int num_nodes, int64_t num_edges, const GenerateControls& controls,
    util::Rng& rng) const {
  CPGAN_CHECK_EQ(static_cast<int>(community_labels.size()), table.rows());
  CPGAN_TRACE_SPAN("hier/generate");

  // Per-request stream base: the only draw from `rng`, so the caller's RNG
  // position is the same whether or not the assembly is cancelled.
  const uint64_t stream_seed = rng.engine()();

  // Observed members per learned community.
  int num_communities = 0;
  for (int label : community_labels) {
    num_communities = std::max(num_communities, label + 1);
  }
  if (num_communities == 0) num_communities = 1;
  std::vector<std::vector<int>> obs_members(num_communities);
  for (size_t v = 0; v < community_labels.size(); ++v) {
    obs_members[community_labels[v]].push_back(static_cast<int>(v));
  }

  // Probe: a few evenly spread members per community scored in one block;
  // block densities are the mean decoded probability per community pair.
  // This is the skeleton's inter-community edge-budget signal, read
  // straight from the learned pooled representation.
  constexpr int kProbePerCommunity = 8;
  std::vector<int> probe_ids;
  std::vector<int> probe_community;
  for (int c = 0; c < num_communities; ++c) {
    const auto& members = obs_members[c];
    const int count =
        std::min<int>(kProbePerCommunity, static_cast<int>(members.size()));
    for (int i = 0; i < count; ++i) {
      probe_ids.push_back(
          members[static_cast<int64_t>(i) * members.size() / count]);
      probe_community.push_back(c);
    }
  }
  {
    // Sort the union by id (scorer contract) carrying the community tags.
    std::vector<int> order(probe_ids.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return probe_ids[a] < probe_ids[b];
    });
    std::vector<int> sorted_ids(probe_ids.size());
    std::vector<int> sorted_community(probe_ids.size());
    for (size_t i = 0; i < order.size(); ++i) {
      sorted_ids[i] = probe_ids[order[i]];
      sorted_community[i] = probe_community[order[i]];
    }
    probe_ids = std::move(sorted_ids);
    probe_community = std::move(sorted_community);
  }
  std::vector<std::vector<double>> density(
      num_communities, std::vector<double>(num_communities, 0.0));
  if (probe_ids.size() >= 2) {
    CPGAN_TRACE_SPAN("hier/probe");
    t::Matrix probs = decoder_->ScoreBlock(table, probe_ids);
    std::vector<std::vector<double>> count(
        num_communities, std::vector<double>(num_communities, 0.0));
    const int k = static_cast<int>(probe_ids.size());
    for (int i = 0; i < k; ++i) {
      for (int j = i + 1; j < k; ++j) {
        int a = probe_community[i];
        int b = probe_community[j];
        if (a > b) std::swap(a, b);
        density[a][b] += std::max(0.0f, probs.At(i, j));
        count[a][b] += 1.0;
      }
    }
    for (int a = 0; a < num_communities; ++a) {
      for (int b = a; b < num_communities; ++b) {
        if (count[a][b] > 0.0) density[a][b] /= count[a][b];
        density[b][a] = density[a][b];
      }
    }
  }

  CommunitySkeleton skeleton =
      BuildSkeleton(community_labels, num_nodes, num_edges, density);

  // Each output node borrows the table row of an observed member of its
  // community (cycling when the output outgrows the training graph).
  std::vector<int> row_of(num_nodes, 0);
  for (int c = 0; c < skeleton.num_communities(); ++c) {
    const auto& out_members = skeleton.members[c];
    const auto& observed = obs_members[c];
    CPGAN_CHECK(out_members.empty() || !observed.empty());
    for (size_t i = 0; i < out_members.size(); ++i) {
      row_of[out_members[i]] = observed[i % observed.size()];
    }
  }

  HierAssemblyOptions options;
  if (controls.subgraph_size > 0) {
    options.assembly.subgraph_size = controls.subgraph_size;
  } else {
    options.assembly.subgraph_size = std::max(config_.subgraph_size, 256);
  }
  options.assembly.max_passes = controls.max_passes;
  options.assembly.should_abort = controls.should_abort;
  options.seed = stream_seed;
  return HierAssembleGraph(
      skeleton,
      [this, &table, &row_of](const std::vector<int>& ids) {
        std::vector<int> rows(ids.size());
        for (size_t i = 0; i < ids.size(); ++i) rows[i] = row_of[ids[i]];
        return decoder_->ScoreBlock(table, rows);
      },
      options);
}

graph::Graph Cpgan::GenerateWith(const GenerateControls& controls,
                                 util::Rng& rng) const {
  CPGAN_CHECK(trained_);
  const int n = contexts_[0].graph.num_nodes();
  const int64_t m = contexts_[0].graph.num_edges();
  const int num_nodes = controls.num_nodes > 0 ? controls.num_nodes : n;
  // Without an explicit edge count, sized outputs keep the observed density
  // (a 10x-smaller request would otherwise come back near-complete).
  const int64_t num_edges = controls.num_edges > 0 ? controls.num_edges
                            : num_nodes == n
                                ? m
                                : std::max<int64_t>(1, m * num_nodes / n);
  if (controls.hierarchical) {
    // The skeleton scales the observed community profile, so hierarchical
    // outputs score from the posterior table at any size.
    return GenerateHierarchicalFromTable(edge_table_, community_labels_,
                                         num_nodes, num_edges, controls, rng);
  }
  if (!controls.from_prior && num_nodes == n) {
    return GenerateFromTable(edge_table_, num_nodes, num_edges, controls,
                             rng);
  }
  std::vector<t::Matrix> latents;
  for (int l = 0; l < effective_levels_; ++l) {
    t::Matrix noise(num_nodes, config_.latent_dim);
    noise.FillNormal(rng, 1.0f);
    latents.push_back(std::move(noise));
  }
  return GenerateFromLatents(latents, num_nodes, num_edges, controls, rng);
}

graph::Graph Cpgan::Generate() {
  CPGAN_CHECK(trained_);
  // Posterior means: the sampled-prior path is exposed via GenerateWithSize;
  // Table III/IV evaluation uses the mean latents, whose decoded structure
  // carries the learned community signal with the least noise.
  GenerateControls controls;
  controls.hierarchical = config_.hierarchical_generation;
  return GenerateWith(controls, rng_);
}

graph::Graph Cpgan::GenerateWithSize(int num_nodes, int64_t num_edges) {
  CPGAN_CHECK(trained_);
  GenerateControls controls;
  controls.num_nodes = num_nodes;
  controls.num_edges = num_edges;
  controls.from_prior = true;
  controls.hierarchical = config_.hierarchical_generation;
  return GenerateWith(controls, rng_);
}

std::vector<double> Cpgan::EdgeProbabilities(
    const std::vector<graph::Edge>& pairs) const {
  CPGAN_CHECK(trained_);
  const t::Matrix& e = edge_table_;
  std::vector<double> probs;
  probs.reserve(pairs.size());
  double bias = decoder_->edge_bias();
  for (const auto& [u, v] : pairs) {
    CPGAN_CHECK(u >= 0 && u < e.rows() && v >= 0 && v < e.rows());
    double dot = bias;
    const float* eu = e.Row(u);
    const float* ev = e.Row(v);
    for (int c = 0; c < e.cols(); ++c) dot += static_cast<double>(eu[c]) * ev[c];
    probs.push_back(1.0 / (1.0 + std::exp(-dot)));
  }
  return probs;
}

bool Cpgan::SaveWeights(const std::string& path) const {
  if (!trained_) {
    CPGAN_LOG(Error) << "SaveWeights(" << path
                     << "): model is untrained — call Fit first";
    return false;
  }
  if (!t::SaveParameters(CollectAllParams(), path)) {
    CPGAN_LOG(Error) << "SaveWeights(" << path << "): write failed";
    return false;
  }
  return true;
}

bool Cpgan::LoadWeights(const std::string& path) {
  if (encoder_ == nullptr) {
    CPGAN_LOG(Error) << "LoadWeights(" << path
                     << "): model architecture not initialized — Fit on a "
                        "graph with matching shape parameters first";
    return false;
  }
  std::vector<t::Tensor> params = CollectAllParams();
  std::string err;
  if (!t::LoadParameters(params, path, &err)) {
    CPGAN_LOG(Error) << "LoadWeights(" << path << "): " << err;
    return false;
  }
  EncodeObserved();
  return true;
}

int64_t Cpgan::ParameterCount() const {
  if (encoder_ == nullptr) return 0;
  return encoder_->ParameterCount() + vae_->ParameterCount() +
         decoder_->ParameterCount() + discriminator_->ParameterCount();
}

}  // namespace cpgan::core
