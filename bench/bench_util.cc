#include "bench/bench_util.h"

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "baselines/condgen.h"
#include "baselines/graphite.h"
#include "baselines/graphrnn.h"
#include "baselines/netgan.h"
#include "baselines/sbmgnn.h"
#include "baselines/vgae.h"
#include "core/cpgan.h"
#include "data/datasets.h"
#include "generators/mmsb.h"
#include "generators/registry.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace cpgan::bench {
namespace {

ModelRun RunTraditional(const std::string& name, const graph::Graph& observed,
                        const RunOptions& options) {
  ModelRun run;
  auto generator = generators::MakeTraditionalGenerator(name);
  CPGAN_CHECK(generator != nullptr);
  util::Rng rng(options.seed);
  util::Timer fit_timer;
  generator->Fit(observed, rng);
  run.fit_seconds = fit_timer.Seconds();
  // MMSB's O(n^2) pair sweep is the paper's OOM case.
  if (name == "MMSB") {
    auto* mmsb = static_cast<generators::MmsbGenerator*>(generator.get());
    if (!mmsb->Feasible()) {
      run.feasible = false;
      return run;
    }
  }
  util::Timer gen_timer;
  run.generated = generator->Generate(rng);
  run.generate_seconds = gen_timer.Seconds();
  run.feasible = true;
  return run;
}

ModelRun RunLearnedBaseline(baselines::LearnedGenerator& model,
                            const graph::Graph& observed,
                            const RunOptions& options) {
  ModelRun run;
  if (!model.FeasibleFor(observed.num_nodes())) {
    run.feasible = false;
    return run;
  }
  baselines::LearnedTrainStats stats = model.Fit(observed);
  run.fit_seconds = stats.train_seconds;
  run.peak_bytes = stats.peak_bytes;
  util::Timer gen_timer;
  run.generated = model.Generate();
  run.generate_seconds = gen_timer.Seconds();
  run.feasible = true;
  if (options.positive_pairs != nullptr) {
    run.positive_probs = model.EdgeProbabilities(*options.positive_pairs);
  }
  if (options.negative_pairs != nullptr) {
    run.negative_probs = model.EdgeProbabilities(*options.negative_pairs);
  }
  if (options.test_positive_pairs != nullptr) {
    run.test_positive_probs =
        model.EdgeProbabilities(*options.test_positive_pairs);
  }
  if (options.test_negative_pairs != nullptr) {
    run.test_negative_probs =
        model.EdgeProbabilities(*options.test_negative_pairs);
  }
  return run;
}

ModelRun RunCpgan(const std::string& name, const graph::Graph& observed,
                  const RunOptions& options) {
  // CPGAN's per-epoch cost is O(n_s^2), not O(n^2): within a comparable
  // wall-clock budget it affords more epochs than the full-graph baselines.
  core::CpganConfig config =
      BenchCpganConfig(options.learned_epochs, options.seed);
  if (name == "CPGAN-C") config.concat_decoder = true;
  if (name == "CPGAN-noV") config.use_variational = false;
  if (name == "CPGAN-noH") config.use_hierarchy = false;
  core::Cpgan model(config);
  ModelRun run;
  core::TrainStats stats = model.Fit(observed);
  run.fit_seconds = stats.train_seconds;
  run.peak_bytes = stats.peak_bytes;
  util::Timer gen_timer;
  run.generated = model.Generate();
  run.generate_seconds = gen_timer.Seconds();
  run.feasible = true;
  if (options.positive_pairs != nullptr) {
    run.positive_probs = model.EdgeProbabilities(*options.positive_pairs);
  }
  if (options.negative_pairs != nullptr) {
    run.negative_probs = model.EdgeProbabilities(*options.negative_pairs);
  }
  if (options.test_positive_pairs != nullptr) {
    run.test_positive_probs =
        model.EdgeProbabilities(*options.test_positive_pairs);
  }
  if (options.test_negative_pairs != nullptr) {
    run.test_negative_probs =
        model.EdgeProbabilities(*options.test_negative_pairs);
  }
  return run;
}

}  // namespace

std::vector<std::string> TraditionalModels() {
  return {"E-R", "B-A", "Chung-Lu", "SBM", "DCSBM", "BTER", "Kronecker",
          "MMSB"};
}

std::vector<std::string> LearnedModels() {
  return {"VGAE", "Graphite", "SBMGNN", "GraphRNN-S", "NetGAN", "CondGen-R",
          "CPGAN"};
}

std::vector<std::string> CpganVariants() {
  return {"CPGAN-C", "CPGAN-noV", "CPGAN-noH", "CPGAN"};
}

namespace {

ModelRun DispatchModel(const std::string& name, const graph::Graph& observed,
                       const RunOptions& options);

}  // namespace

ModelRun RunModel(const std::string& name, const graph::Graph& observed,
                  const RunOptions& options) {
  // Under CPGAN_BENCH_PROFILE the whole run is a trace-span collection
  // window, so bench snapshots can break fit_seconds down by phase. Spans
  // only observe the clock (obs/trace.h), so this cannot change results.
  if (!ProfileRequested()) return DispatchModel(name, observed, options);
  obs::ResetTraces();
  obs::SetTracingEnabled(true);
  ModelRun run = DispatchModel(name, observed, options);
  obs::SetTracingEnabled(false);
  for (const obs::SpanStats& span : obs::CollectSpanStats()) {
    run.phase_ms.emplace_back(span.path,
                              static_cast<double>(span.exclusive_ns) / 1e6);
  }
  return run;
}

namespace {

ModelRun DispatchModel(const std::string& name, const graph::Graph& observed,
                       const RunOptions& options) {
  // Traditional models.
  for (const std::string& traditional : TraditionalModels()) {
    if (name == traditional) return RunTraditional(name, observed, options);
  }
  if (name == "W-S") return RunTraditional(name, observed, options);

  if (name == "VGAE") {
    baselines::VgaeConfig config;
    config.epochs = options.learned_epochs;
    config.seed = options.seed;
    baselines::Vgae model(config);
    return RunLearnedBaseline(model, observed, options);
  }
  if (name == "Graphite") {
    baselines::VgaeConfig config;
    config.epochs = options.learned_epochs;
    config.seed = options.seed;
    baselines::Graphite model(config);
    return RunLearnedBaseline(model, observed, options);
  }
  if (name == "SBMGNN") {
    baselines::VgaeConfig config;
    config.epochs = options.learned_epochs;
    config.seed = options.seed;
    baselines::Sbmgnn model(config);
    return RunLearnedBaseline(model, observed, options);
  }
  if (name == "NetGAN") {
    baselines::NetganConfig config;
    config.epochs = std::min(options.learned_epochs, 150);
    config.seed = options.seed;
    baselines::Netgan model(config);
    return RunLearnedBaseline(model, observed, options);
  }
  if (name == "GraphRNN-S") {
    baselines::GraphRnnConfig config;
    config.epochs = std::clamp(options.learned_epochs / 2, 10, 80);
    config.seed = options.seed;
    baselines::GraphRnnS model(config);
    return RunLearnedBaseline(model, observed, options);
  }
  if (name == "CondGen-R") {
    baselines::CondGenR model(std::min(options.learned_epochs, 200),
                              options.seed);
    return RunLearnedBaseline(model, observed, options);
  }
  if (name == "CPGAN" || name == "CPGAN-C" || name == "CPGAN-noV" ||
      name == "CPGAN-noH") {
    return RunCpgan(name, observed, options);
  }
  CPGAN_CHECK_MSG(false, "unknown model name");
  return ModelRun{};
}

}  // namespace

int BenchRuns() {
  const char* env = std::getenv("CPGAN_BENCH_RUNS");
  if (env != nullptr) {
    int runs = std::atoi(env);
    if (runs >= 1) return runs;
  }
  return 2;
}

bool ProfileRequested() {
  const char* env = std::getenv("CPGAN_BENCH_PROFILE");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

std::string PhaseBreakdownJson(const std::string& model, const ModelRun& run) {
  if (run.phase_ms.empty()) return "";
  obs::JsonValue phases = obs::JsonValue::Object();
  for (const auto& [path, ms] : run.phase_ms) {
    phases.Add(path, obs::JsonValue::Number(ms));
  }
  obs::JsonValue record = obs::JsonValue::Object();
  record.Add("model", obs::JsonValue::String(model));
  record.Add("phase_ms", std::move(phases));
  return record.Serialize();
}

double BenchScale() {
  const char* env = std::getenv("CPGAN_BENCH_SCALE");
  if (env != nullptr) {
    double scale = std::atof(env);
    if (scale > 0.01) return scale;
  }
  return 1.0;
}

graph::Graph BenchDataset(const std::string& name, uint64_t seed) {
  double scale = BenchScale();
  if (scale == 1.0) return data::MakeDataset(name, seed);
  graph::Graph reference = data::MakeDataset(name, seed);
  int nodes = std::max(20, static_cast<int>(reference.num_nodes() * scale));
  return data::MakeScaledDataset(name, nodes, seed);
}

core::CpganConfig BenchCpganConfig(int epochs, uint64_t seed) {
  core::CpganConfig config;
  config.epochs = epochs;
  config.seed = seed;
  config.subgraph_size = 320;
  config.hidden_dim = 32;
  config.latent_dim = 32;
  config.feature_dim = 32;
  config.num_levels = 2;
  return config;
}

}  // namespace cpgan::bench
