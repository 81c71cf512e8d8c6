#include "core/cpgan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <unordered_map>

#include "core/assembly.h"
#include "core/hier_assembly.h"
#include "core/losses.h"
#include "core/sampler.h"
#include "graph/spectral.h"
#include "obs/metrics.h"
#include "obs/run_logger.h"
#include "obs/trace.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
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

/// Gathers rows of a plain matrix.
t::Matrix GatherMatrixRows(const t::Matrix& m, const std::vector<int>& ids) {
  t::Matrix out(static_cast<int>(ids.size()), m.cols());
  for (size_t i = 0; i < ids.size(); ++i) {
    const float* src = m.Row(ids[i]);
    float* dst = out.Row(static_cast<int>(i));
    for (int c = 0; c < m.cols(); ++c) dst[c] = src[c];
  }
  return out;
}

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

t::Matrix BinaryTargets(float value) {
  t::Matrix m(1, 1);
  m.At(0, 0) = value;
  return m;
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

}  // namespace

Cpgan::Cpgan(const CpganConfig& config) : config_(config), rng_(config.seed) {
  CPGAN_CHECK_GE(config_.num_levels, 1);
  CPGAN_CHECK_GE(config_.feature_dim, 1);
  if (config_.num_threads > 0) {
    util::ThreadPool::SetGlobalThreads(config_.num_threads);
  }
  if (!config_.kernel_backend.empty()) {
    std::string error;
    if (!tensor::kernels::SetBackend(config_.kernel_backend, &error)) {
      CPGAN_LOG(Warning) << "kernel_backend: " << error
                         << "; keeping process-wide selection";
    }
  }
}

std::vector<int> Cpgan::ResolvePoolSizes(int subgraph_nodes) const {
  if (!config_.pool_sizes.empty()) return config_.pool_sizes;
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

void Cpgan::BuildModel(const std::vector<graph::Graph>& graphs) {
  const graph::Graph& observed = graphs[0];
  observed_ = std::make_unique<graph::Graph>(observed);
  int n = observed.num_nodes();
  int ns = std::min(config_.subgraph_size, n);
  CPGAN_CHECK_GE(ns, 2);

  features_ = t::Tensor(
      graph::SpectralEmbedding(observed, config_.feature_dim, rng_),
      /*requires_grad=*/true);
  louvain_ = community::Louvain(observed, rng_);

  std::vector<int> pool_sizes = ResolvePoolSizes(ns);
  effective_levels_ = static_cast<int>(pool_sizes.size()) + 1;

  // Per-pooling-step community targets from the Louvain hierarchy: step l is
  // constrained by a Louvain level of matching granularity (DESIGN.md §2.5).
  int louvain_levels = static_cast<int>(louvain_.levels.size());
  targets_by_level_.clear();
  for (size_t l = 0; l < pool_sizes.size(); ++l) {
    int lv = std::min(static_cast<int>(l), louvain_levels - 1);
    targets_by_level_.push_back(
        RemapLabels(louvain_.levels[lv].labels(), pool_sizes[l]));
  }

  // Secondary training graphs: own features + community targets each.
  extra_contexts_.clear();
  for (size_t gi = 1; gi < graphs.size(); ++gi) {
    TrainContext ctx;
    ctx.graph = graphs[gi];
    ctx.features = t::Tensor(
        graph::SpectralEmbedding(ctx.graph, config_.feature_dim, rng_),
        /*requires_grad=*/true);
    community::LouvainResult lv = community::Louvain(ctx.graph, rng_);
    int lv_levels = static_cast<int>(lv.levels.size());
    for (size_t l = 0; l < pool_sizes.size(); ++l) {
      int which = std::min(static_cast<int>(l), lv_levels - 1);
      ctx.targets.push_back(
          RemapLabels(lv.levels[which].labels(), pool_sizes[l]));
    }
    extra_contexts_.push_back(std::move(ctx));
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
  std::vector<t::Tensor> params;
  for (const nn::Module* m :
       {static_cast<const nn::Module*>(encoder_.get()),
        static_cast<const nn::Module*>(vae_.get()),
        static_cast<const nn::Module*>(decoder_.get()),
        static_cast<const nn::Module*>(discriminator_.get())}) {
    auto p = m->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  params.push_back(features_);
  for (const TrainContext& ctx : extra_contexts_) {
    params.push_back(ctx.features);
  }
  return params;
}

bool Cpgan::WarmStart(const graph::Graph& observed,
                      const std::string& checkpoint_path, std::string* error) {
  CPGAN_CHECK(!trained_);
  BuildModel({observed});
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

TrainStats Cpgan::FitMany(const std::vector<graph::Graph>& graphs) {
  TrainStats stats = Train(graphs);
  // Encoded only now that Train has released its optimizers, guard and
  // epoch state: the pass must not raise the training peak.
  if (trained_) EncodeObserved();
  return stats;
}

TrainStats Cpgan::Train(const std::vector<graph::Graph>& graphs) {
  CPGAN_CHECK(!graphs.empty());
  CPGAN_CHECK(!trained_);
  util::Timer timer;
  util::MemoryTracker::Global().ResetPeak();
  if (config_.mem_budget_mb > 0) {
    util::MemoryTracker::Global().SetBudgetBytes(config_.mem_budget_mb << 20);
  }

  // Coreset training (docs/INTERNALS.md, "Streaming ingest"): swap the
  // primary graph for the induced subgraph of a sensitivity sample before
  // anything downstream (spectral features, Louvain, the epoch loop) sees
  // it, so every per-node cost scales with the coreset, not the full graph.
  // Secondary graphs are left alone — they are small by construction.
  std::vector<graph::Graph> coreset_graphs;
  const std::vector<graph::Graph>* training = &graphs;
  int coreset_nodes = 0;
  if (config_.coreset_size > 1 &&
      config_.coreset_size < graphs[0].num_nodes()) {
    CPGAN_TRACE_SPAN("train/coreset_sample");
    CoresetSample coreset =
        SensitivityCoresetSample(graphs[0], config_.coreset_size, rng_);
    coreset_nodes = static_cast<int>(coreset.size());
    coreset_graphs.reserve(graphs.size());
    coreset_graphs.push_back(graphs[0].InducedSubgraph(coreset.nodes));
    coreset_graphs.insert(coreset_graphs.end(), graphs.begin() + 1,
                          graphs.end());
    training = &coreset_graphs;
    // Keep the Horvitz-Thompson importance weights, aligned with the
    // relabeled coreset node ids (InducedSubgraph preserves coreset.nodes
    // order), so the per-node loss terms can debias the coreset estimator.
    coreset_weights_.assign(coreset.weights.begin(), coreset.weights.end());
    coreset_full_nodes_ = graphs[0].num_nodes();
    CPGAN_LOG(Info) << "coreset training: " << coreset_nodes << " of "
                    << graphs[0].num_nodes() << " nodes ("
                    << coreset_graphs[0].num_edges() << " of "
                    << graphs[0].num_edges()
                    << " edges), importance-weighted losses";
  }
  const graph::Graph& observed = (*training)[0];

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
  obs::RunLogger run_logger;
  if (!config_.metrics_out.empty()) run_logger.Open(config_.metrics_out);
  const int run_threads = util::ThreadPool::Global().num_threads();

  BuildModel(*training);
  int ns = std::min(config_.subgraph_size, observed.num_nodes());

  auto collect = [](std::initializer_list<const nn::Module*> modules) {
    std::vector<t::Tensor> params;
    for (const nn::Module* m : modules) {
      auto p = m->Parameters();
      params.insert(params.end(), p.begin(), p.end());
    }
    return params;
  };
  std::vector<t::Tensor> params_d =
      collect({discriminator_.get(), encoder_.get()});
  // Generator parameters split into a slow (adversarially sensitive) group
  // and a fast (reconstruction/memorization) group.
  std::vector<t::Tensor> params_g_slow =
      collect({encoder_.get(), vae_.get()});
  std::vector<t::Tensor> params_g_fast = decoder_->Parameters();
  params_g_fast.push_back(features_);
  for (TrainContext& ctx : extra_contexts_) {
    params_g_fast.push_back(ctx.features);
  }
  std::vector<t::Tensor> params_g = params_g_slow;
  params_g.insert(params_g.end(), params_g_fast.begin(), params_g_fast.end());
  t::Adam opt_d(params_d, config_.learning_rate);
  t::Adam opt_g(params_g_slow, config_.learning_rate);
  t::Adam opt_g_fast(params_g_fast,
                     config_.learning_rate * config_.fast_lr_multiplier);

  // ----- Fault-tolerance runtime (docs/INTERNALS.md) -----
  // The guard snapshots/restores the union of every trainable parameter;
  // the same list is what checkpoints persist.
  std::vector<t::Tensor> params_all = CollectAllParams();

  train::GuardConfig guard_config;
  guard_config.enabled = config_.guard_enabled;
  guard_config.window = config_.guard_window;
  guard_config.explosion_factor = config_.guard_explosion_factor;
  guard_config.lr_decay_on_recovery = config_.guard_lr_decay;
  guard_config.max_recoveries = config_.guard_max_recoveries;
  train::TrainingGuard guard(guard_config, params_all);
  constexpr int kDiscStream = 0;
  constexpr int kGenStream = 1;
  auto decay_all = [&](float factor) {
    opt_d.DecayLearningRate(factor);
    opt_g.DecayLearningRate(factor);
    opt_g_fast.DecayLearningRate(factor);
  };

  const uint64_t arch_hash = ArchitectureHash();
  TrainStats stats;
  stats.coreset_nodes = coreset_nodes;
  int start_epoch = 0;
  if (!resume_from_.empty()) {
    train::CheckpointMeta meta;
    std::string err;
    // The file's checksums were vetted in ResumeFrom; this re-parse also
    // validates shape/count against the freshly built model, so resuming
    // into a different architecture or graph fails before any training.
    CPGAN_CHECK_MSG(train::LoadCheckpoint(resume_from_, &meta, params_all,
                                          arch_hash, &err),
                    ("resume failed: " + err).c_str());
    start_epoch = std::min(meta.epoch, config_.epochs);
    stats.start_epoch = start_epoch;
    // Catch the learning-rate schedule up to the resumed epoch.
    if (config_.lr_decay_every > 0) {
      for (int e = 0; e < start_epoch; ++e) {
        if ((e + 1) % config_.lr_decay_every == 0) decay_all(config_.lr_decay);
      }
    }
    CPGAN_LOG(Info) << "resumed from " << resume_from_ << " at epoch "
                    << start_epoch;
    resume_from_.clear();
  }
  bool checkpointing =
      !config_.checkpoint_dir.empty() && config_.checkpoint_every > 0;
  if (checkpointing && !util::MakeDirs(config_.checkpoint_dir)) {
    CPGAN_LOG(Warning) << "cannot create checkpoint dir '"
                       << config_.checkpoint_dir << "'; checkpoints disabled";
    checkpointing = false;
  }
  // Checkpoint writes go through retry-with-backoff so a single flaky
  // rename/fsync cannot lose the run. The jitter RNG is a separate stream
  // from the training RNG so transient I/O can never perturb the numerics.
  util::Rng io_rng(config_.seed ^ 0xC3A5C85C97CB3127ULL);
  util::BackoffPolicy io_backoff;
  auto write_checkpoint = [&](int completed_epochs) -> bool {
    train::CheckpointMeta meta;
    meta.epoch = completed_epochs;
    meta.config_hash = arch_hash;
    std::string path =
        train::CheckpointPath(config_.checkpoint_dir, completed_epochs);
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
    return retried.ok;
  };
  // Per-epoch guard telemetry for the structured run log.
  int epoch_trips = 0;
  int epoch_rollbacks = 0;
  // Handles a step rejected by the guard: skip the optimizer, roll the
  // parameters back to the last-known-good snapshot, and back the learning
  // rate off. The epoch continues with restored weights.
  auto recover = [&](const char* which, int epoch, train::StepVerdict verdict,
                     float loss) {
    guard.Recover();
    decay_all(guard_config.lr_decay_on_recovery);
    ++stats.recoveries;
    ++epoch_trips;
    if (guard.has_snapshot()) ++epoch_rollbacks;
    CPGAN_LOG(Warning) << "guard: " << which << " step rejected at epoch "
                       << epoch << " (" << train::StepVerdictName(verdict)
                       << ", loss=" << loss << "); "
                       << (guard.has_snapshot()
                               ? "rolled back to last good parameters"
                               : "no snapshot yet, step skipped");
  };

  auto zero_all = [this]() {
    encoder_->ZeroGrad();
    vae_->ZeroGrad();
    decoder_->ZeroGrad();
    discriminator_->ZeroGrad();
    features_.ZeroGrad();
    for (TrainContext& ctx : extra_contexts_) ctx.features.ZeroGrad();
  };

  t::Matrix real_target = BinaryTargets(1.0f);
  t::Matrix fake_target = BinaryTargets(0.0f);

  bool killed = false;
  for (int epoch = start_epoch; epoch < config_.epochs; ++epoch) {
    CPGAN_TRACE_SPAN("train/epoch");
    util::Timer epoch_timer;
    epoch_trips = 0;
    epoch_rollbacks = 0;
    int64_t enc_peak = 0, dec_peak = 0, disc_peak = 0;
    double epoch_grad_norm = 0.0;
    bool wrote_checkpoint = false;
    double checkpoint_ms = 0.0;

    // Uniformly pick a training graph (multi-graph fitting).
    int which = static_cast<int>(
        rng_.UniformInt(1 + static_cast<int64_t>(extra_contexts_.size())));
    const graph::Graph& current =
        which == 0 ? observed : extra_contexts_[which - 1].graph;
    t::Tensor& current_features =
        which == 0 ? features_ : extra_contexts_[which - 1].features;
    const std::vector<std::vector<int>>& current_targets =
        which == 0 ? targets_by_level_ : extra_contexts_[which - 1].targets;

    int ns_cur = std::min(ns, current.num_nodes());
    std::vector<int> idx;
    graph::Graph sub{0};
    std::shared_ptr<t::SparseMatrix> a_hat;
    t::Tensor x_s;
    t::Matrix a_dense;
    float pos_weight = 1.0f;
    int k = 0;
    {
      CPGAN_TRACE_SPAN("train/sample");
      idx = DegreeProportionalSample(current, ns_cur, rng_);
      sub = current.InducedSubgraph(idx);
      a_hat = std::make_shared<t::SparseMatrix>(
          config_.use_two_hop_adjacency
              ? t::TwoHopNormalizedAdjacency(sub.num_nodes(), sub.Edges())
              : t::NormalizedAdjacency(sub.num_nodes(), sub.Edges()));
      x_s = t::GatherRows(current_features, idx);

      // Dense 0/1 adjacency target for the reconstruction likelihood.
      k = sub.num_nodes();
      a_dense = t::Matrix(k, k);
      for (const auto& [u, v] : sub.Edges()) {
        a_dense.At(u, v) = 1.0f;
        a_dense.At(v, u) = 1.0f;
      }
      double m_s = static_cast<double>(sub.num_edges());
      pos_weight = static_cast<float>(std::clamp(
          (static_cast<double>(k) * k - 2.0 * m_s) / std::max(1.0, 2.0 * m_s),
          1.0, 8.0));
    }

    // Coreset importance weights for this batch (primary graph only; empty
    // = unweighted). The normalizers are the full graph's node count scaled
    // by the batch's fraction of the coreset, so with unit weights they
    // reduce to the plain 1/k and 1/k^2 means.
    std::vector<float> batch_weights;
    float node_inv_norm = 0.0f;
    float pair_inv_norm = 0.0f;
    if (which == 0 && !coreset_weights_.empty()) {
      batch_weights.resize(idx.size());
      for (size_t i = 0; i < idx.size(); ++i) {
        batch_weights[i] = coreset_weights_[idx[i]];
      }
      const double denom = static_cast<double>(coreset_full_nodes_) *
                           static_cast<double>(k) / current.num_nodes();
      node_inv_norm = static_cast<float>(1.0 / denom);
      pair_inv_norm = static_cast<float>(1.0 / (denom * denom));
    }

    auto sample_prior = [&]() {
      std::vector<t::Tensor> z;
      for (int l = 0; l < effective_levels_; ++l) {
        t::Matrix noise(k, config_.latent_dim);
        noise.FillNormal(rng_, 1.0f);
        z.push_back(t::Constant(std::move(noise)));
      }
      return z;
    };

    bool disc_epoch =
        config_.disc_every > 0 && epoch % config_.disc_every == 0;
    bool prior_epoch =
        config_.prior_every > 0 && epoch % config_.prior_every == 0;

    // ----- Discriminator step (eq. 16/17) -----
    if (disc_epoch) {
      CPGAN_TRACE_SPAN("train/disc_step");
      EncoderOutput enc_real = encoder_->Forward(a_hat, x_s);
      t::Tensor d_real = discriminator_->ForwardLogit(enc_real.readout);
      t::Tensor l_clus = ClusteringLoss(enc_real.assignments, idx,
                                        current_targets, batch_weights,
                                        node_inv_norm);

      VariationalOutput vae_out =
          vae_->Forward(enc_real.z_rec, rng_, config_.use_variational);
      t::Tensor h = decoder_->DecodeNodes(vae_out.z_vae);
      t::Tensor probs_rec =
          t::Sigmoid(decoder_->EdgeLogits(h)).Detach();
      t::Tensor d_fake = discriminator_->ForwardLogit(
          encoder_->ForwardDense(probs_rec, x_s).readout);
      t::Tensor fake_losses = t::BceWithLogits(d_fake, fake_target);
      if (prior_epoch) {
        t::Tensor h_prior = decoder_->DecodeNodes(sample_prior());
        t::Tensor probs_prior =
            t::Sigmoid(decoder_->EdgeLogits(h_prior)).Detach();
        t::Tensor d_prior = discriminator_->ForwardLogit(
            encoder_->ForwardDense(probs_prior, x_s).readout);
        fake_losses = t::Scale(
            t::Add(fake_losses, t::BceWithLogits(d_prior, fake_target)), 0.5f);
      }
      t::Tensor loss_d =
          t::Add(t::Add(t::BceWithLogits(d_real, real_target), fake_losses),
                 t::Scale(l_clus, config_.clus_weight));
      {
        CPGAN_TRACE_SPAN("train/backward");
        t::Backward(loss_d);
      }
      float d_loss_value = loss_d.Scalar();
      train::StepVerdict verdict =
          guard.Inspect(d_loss_value, params_d, kDiscStream);
      if (verdict == train::StepVerdict::kOk) {
        CPGAN_TRACE_SPAN("train/optimizer");
        t::ClipGradients(params_d, config_.grad_clip);
        opt_d.Step();
        guard.CommitGood(d_loss_value, kDiscStream);
      } else {
        recover("discriminator", epoch, verdict, d_loss_value);
      }
      zero_all();
      stats.d_loss.push_back(d_loss_value);
      stats.clus_loss.push_back(l_clus.Scalar());
    }

    // ----- Generator step (eq. 18/19 merged; see DESIGN.md) -----
    {
      CPGAN_TRACE_SPAN("train/gen_step");
      // Each forward phase runs inside a MemoryRegion so its peak live
      // bytes are attributable in the run log (Table IX's analogue).
      EncoderOutput enc;
      VariationalOutput vae_out;
      {
        util::MemoryRegion region;
        enc = encoder_->Forward(a_hat, x_s);
        vae_out = vae_->Forward(enc.z_rec, rng_, config_.use_variational);
        enc_peak = region.PeakBytes();
      }
      t::Tensor h, logits, probs;
      {
        util::MemoryRegion region;
        h = decoder_->DecodeNodes(vae_out.z_vae);
        logits = decoder_->EdgeLogits(h);
        probs = t::Sigmoid(logits);
        dec_peak = region.PeakBytes();
      }

      EncoderOutput enc_fake;
      t::Tensor adv;
      {
        util::MemoryRegion region;
        enc_fake = encoder_->ForwardDense(probs, x_s);
        adv = t::BceWithLogits(
            discriminator_->ForwardLogit(enc_fake.readout), real_target);
        if (prior_epoch) {
          t::Tensor h_prior = decoder_->DecodeNodes(sample_prior());
          t::Tensor probs_prior = t::Sigmoid(decoder_->EdgeLogits(h_prior));
          EncoderOutput enc_prior = encoder_->ForwardDense(probs_prior, x_s);
          t::Tensor adv_prior = t::BceWithLogits(
              discriminator_->ForwardLogit(enc_prior.readout), real_target);
          adv = t::Scale(t::Add(adv, adv_prior), 0.5f);
        }
        disc_peak = region.PeakBytes();
      }

      t::Tensor l_rec = t::MseLoss(enc.readout, enc_fake.readout);
      // Coreset batches debias the reconstruction likelihood with the pair
      // weights w_i * w_j; the unweighted path is bitwise-unchanged.
      t::Tensor l_bce =
          batch_weights.empty()
              ? t::BceWithLogits(logits, a_dense, pos_weight)
              : WeightedBceWithLogits(logits, a_dense, batch_weights,
                                      pos_weight, pair_inv_norm);

      t::Tensor loss_g = t::Add(
          t::Add(t::Scale(adv, config_.adv_weight),
                 t::Scale(l_rec, config_.rec_weight)),
          t::Add(t::Scale(vae_out.kl, config_.kl_weight),
                 t::Scale(l_bce, config_.bce_weight)));
      {
        CPGAN_TRACE_SPAN("train/backward");
        t::Backward(loss_g);
      }
      if (run_logger.ok()) epoch_grad_norm = GradNorm(params_g);
      float g_loss_value = loss_g.Scalar();
      // Deterministic fault injection (tests only; a default plan is inert).
      if (fault_plan_.InjectNanGrad(epoch)) {
        train::PoisonGradient(params_g, fault_plan_.nan_grad_param);
      }
      if (fault_plan_.InjectInfLoss(epoch)) {
        g_loss_value = std::numeric_limits<float>::infinity();
      }
      train::StepVerdict verdict =
          guard.Inspect(g_loss_value, params_g, kGenStream);
      if (verdict == train::StepVerdict::kOk) {
        CPGAN_TRACE_SPAN("train/optimizer");
        t::ClipGradients(params_g, config_.grad_clip);
        opt_g.Step();
        opt_g_fast.Step();
        guard.CommitGood(g_loss_value, kGenStream);
      } else {
        recover("generator", epoch, verdict, g_loss_value);
      }
      zero_all();
      stats.g_loss.push_back(g_loss_value);
    }

    if (config_.lr_decay_every > 0 && (epoch + 1) % config_.lr_decay_every == 0) {
      opt_d.DecayLearningRate(config_.lr_decay);
      opt_g.DecayLearningRate(config_.lr_decay);
      opt_g_fast.DecayLearningRate(config_.lr_decay);
    }
    if (config_.verbose && (epoch % 20 == 0 || epoch + 1 == config_.epochs)) {
      CPGAN_LOG(Info) << "epoch " << epoch << " d_loss=" << stats.d_loss.back()
                      << " g_loss=" << stats.g_loss.back()
                      << " clus=" << stats.clus_loss.back();
    }

    // Periodic checkpoint at the epoch boundary (plus one after the final
    // epoch) so a killed run can resume via ResumeFrom.
    if (fault_plan_.InjectIoFailure(epoch)) {
      util::InjectAtomicWriteFailures(fault_plan_.io_fail_count);
    }
    bool final_epoch = epoch + 1 == config_.epochs;
    if (checkpointing &&
        ((epoch + 1) % config_.checkpoint_every == 0 || final_epoch)) {
      util::Timer checkpoint_timer;
      wrote_checkpoint = write_checkpoint(epoch + 1);
      checkpoint_ms = checkpoint_timer.Millis();
    }

    if (run_logger.ok()) {
      obs::EpochRecord record;
      record.epoch = epoch;
      record.graph_index = which;
      record.has_d_loss = disc_epoch;
      if (disc_epoch) record.d_loss = stats.d_loss.back();
      record.g_loss = stats.g_loss.back();
      record.has_clus_loss = disc_epoch;
      if (disc_epoch) record.clus_loss = stats.clus_loss.back();
      record.grad_norm = epoch_grad_norm;
      record.guard_trips = epoch_trips;
      record.rollbacks = epoch_rollbacks;
      record.wrote_checkpoint = wrote_checkpoint;
      record.checkpoint_ms = checkpoint_ms;
      record.peak_bytes = util::MemoryTracker::Global().peak_bytes();
      record.encoder_peak_bytes = enc_peak;
      record.decoder_peak_bytes = dec_peak;
      record.discriminator_peak_bytes = disc_peak;
      record.threads = run_threads;
      record.rss_bytes = obs::CurrentRssBytes();
      record.epoch_ms = epoch_timer.Millis();
      if (run_logger.Log(record)) ++stats.metrics_records;
      if (config_.metrics_snapshot_every > 0 &&
          ((epoch + 1) % config_.metrics_snapshot_every == 0 ||
           final_epoch)) {
        run_logger.LogMetricsSnapshot(epoch);
      }
    }
    if (guard.exhausted()) {
      CPGAN_LOG(Error) << "guard: " << guard.recoveries()
                       << " recoveries reached the configured maximum; "
                          "stopping with last-known-good weights";
      stats.guard_exhausted = true;
      break;
    }
    if (fault_plan_.StopAfter(epoch)) {
      // Simulated crash: leave the model untrained, like a killed process.
      stats.stopped_by_fault = true;
      killed = true;
      break;
    }
    // Graceful SIGINT/SIGTERM shutdown (train/signal.h): finish the epoch,
    // persist a final checkpoint, and fall through to the sink flushes below
    // instead of dying mid-epoch. The model keeps its current weights.
    if (train::StopRequested()) {
      CPGAN_LOG(Info) << "stop requested; ending training after epoch "
                      << epoch;
      if (checkpointing && !wrote_checkpoint) write_checkpoint(epoch + 1);
      stats.interrupted = true;
      break;
    }
  }
  trained_ = !killed;
  stats.train_seconds = timer.Seconds();
  stats.peak_bytes = util::MemoryTracker::Global().peak_bytes();
  if (config_.mem_budget_mb > 0 &&
      stats.peak_bytes > (config_.mem_budget_mb << 20)) {
    stats.budget_exceeded = true;
    CPGAN_LOG(Warning) << "memory budget exceeded: peak " << stats.peak_bytes
                       << " bytes > " << config_.mem_budget_mb << " MiB";
  }
  run_logger.Close();
  if (config_.profile) {
    std::fputs(obs::RenderProfile().c_str(), stdout);
  }
  if (!config_.trace_out.empty() && !obs::WriteChromeTrace(config_.trace_out)) {
    CPGAN_LOG(Warning) << "failed to write trace " << config_.trace_out;
  }
  return stats;
}

uint64_t Cpgan::ArchitectureHash() const {
  std::vector<int64_t> fields = {
      config_.feature_dim,   config_.hidden_dim,
      config_.latent_dim,    config_.num_levels,
      config_.max_pool_size, config_.use_hierarchy ? 1 : 0,
      config_.concat_decoder ? 1 : 0,
      observed_ != nullptr ? observed_->num_nodes() : 0,
      static_cast<int64_t>(extra_contexts_.size())};
  for (int size : config_.pool_sizes) fields.push_back(size);
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
  auto a_hat = std::make_shared<t::SparseMatrix>(
      config_.use_two_hop_adjacency
          ? t::TwoHopNormalizedAdjacency(observed_->num_nodes(),
                                         observed_->Edges())
          : t::NormalizedAdjacency(observed_->num_nodes(),
                                   observed_->Edges()));
  EncoderOutput enc = encoder_->Forward(a_hat, features_.Detach());
  // sample=false keeps the posterior means and draws nothing, so the local
  // RNG is never advanced and the result is a pure function of the weights.
  util::Rng unused_rng(0);
  VariationalOutput vae_out =
      vae_->Forward(enc.z_rec, unused_rng, /*sample=*/false);
  posterior_latents_.clear();
  for (const t::Tensor& z : vae_out.z_vae) {
    posterior_latents_.push_back(z.value());
  }
  // Pooling disabled (CPGAN-noH): the Louvain targets are the learned
  // representation's training signal; use them directly.
  community_labels_ = enc.assignments.empty()
                          ? louvain_.FinalPartition().labels()
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

t::Matrix Cpgan::ScoreSubgraph(const std::vector<t::Matrix>& latents,
                               const std::vector<int>& ids) const {
  std::vector<t::Tensor> z;
  z.reserve(latents.size());
  for (const t::Matrix& level : latents) {
    z.push_back(t::Constant(GatherMatrixRows(level, ids)));
  }
  t::Tensor h = decoder_->DecodeNodes(z);
  return t::Sigmoid(decoder_->EdgeLogits(h)).value();
}

graph::Graph Cpgan::GenerateFromLatents(const std::vector<t::Matrix>& latents,
                                        int num_nodes, int64_t num_edges,
                                        const GenerateControls& controls,
                                        util::Rng& rng) const {
  CPGAN_CHECK(trained_);
  CPGAN_CHECK(!latents.empty());
  CPGAN_CHECK_EQ(latents[0].rows(), num_nodes);
  AssemblyOptions options;
  if (controls.subgraph_size > 0) {
    options.subgraph_size = controls.subgraph_size;
  } else if (controls.from_prior || num_nodes != observed_->num_nodes()) {
    options.subgraph_size = std::max(config_.subgraph_size, 256);
  } else {
    options.subgraph_size =
        std::min(num_nodes, std::max(config_.subgraph_size, 1024));
  }
  options.max_passes = controls.max_passes;
  options.should_abort = controls.should_abort;
  options.aborted = controls.aborted;
  return AssembleGraph(
      num_nodes, num_edges,
      [this, &latents](const std::vector<int>& ids) {
        return ScoreSubgraph(latents, ids);
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
  CPGAN_CHECK_EQ(static_cast<int>(community_labels.size()),
                 latents[0].rows());
  CPGAN_TRACE_SPAN("hier/generate");

  // Per-request stream base, drawn before any early exit so the RNG
  // position stays deterministic.
  const uint64_t stream_seed = rng.engine()();

  bool local_aborted = false;
  bool* aborted = controls.aborted != nullptr ? controls.aborted
                                              : &local_aborted;
  *aborted = false;
  auto abort_now = [&controls]() {
    return controls.should_abort && controls.should_abort();
  };

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

  // Probe decode: a few evenly spread members per community scored in one
  // decoder pass; block densities are the mean decoded probability per
  // community pair. This is the skeleton's inter-community edge-budget
  // signal, read straight from the learned pooled representation.
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
  if (abort_now()) {
    *aborted = true;
    return graph::Graph(num_nodes, {});
  }
  if (probe_ids.size() >= 2) {
    CPGAN_TRACE_SPAN("hier/probe");
    t::Matrix probs = ScoreSubgraph(latents, probe_ids);
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

  // Each output node borrows the latent row of an observed member of its
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
  options.seed = stream_seed;
  options.should_abort = controls.should_abort;
  options.aborted = aborted;
  return HierAssembleGraph(
      skeleton,
      [this, &latents, &row_of](const std::vector<int>& ids) {
        std::vector<int> rows(ids.size());
        for (size_t i = 0; i < ids.size(); ++i) rows[i] = row_of[ids[i]];
        return ScoreSubgraph(latents, rows);
      },
      options);
}

graph::Graph Cpgan::GenerateWith(const GenerateControls& controls,
                                 util::Rng& rng) const {
  CPGAN_CHECK(trained_);
  const int n = observed_->num_nodes();
  const int64_t m = observed_->num_edges();
  const int num_nodes = controls.num_nodes > 0 ? controls.num_nodes : n;
  // Without an explicit edge count, sized outputs keep the observed density
  // (a 10x-smaller request would otherwise come back near-complete).
  const int64_t num_edges = controls.num_edges > 0 ? controls.num_edges
                            : num_nodes == n
                                ? m
                                : std::max<int64_t>(1, m * num_nodes / n);
  if (controls.hierarchical) {
    // The skeleton scales the observed community profile, so hierarchical
    // outputs decode from the posterior latents at any size.
    return GenerateHierarchicalFromLatents(posterior_latents_,
                                           community_labels_, num_nodes,
                                           num_edges, controls, rng);
  }
  if (!controls.from_prior && num_nodes == n) {
    return GenerateFromLatents(posterior_latents_, num_nodes, num_edges,
                               controls, rng);
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
    const std::vector<graph::Edge>& pairs) {
  CPGAN_CHECK(trained_);
  std::vector<t::Tensor> z;
  z.reserve(posterior_latents_.size());
  for (const t::Matrix& level : posterior_latents_) {
    z.push_back(t::Constant(level));
  }
  t::Tensor h = decoder_->DecodeNodes(z);
  t::Matrix e = decoder_->EdgeEmbeddings(h).value();
  std::vector<double> probs;
  probs.reserve(pairs.size());
  double bias = decoder_->edge_bias();
  for (const auto& [u, v] : pairs) {
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
