// Repository benchmark harness: one process runs one workload (see
// perfbench/README.md for the workloads, metrics and run protocol).
//
//   perfbench --workload generate|serve --seed N --seconds S --trace 0|1
//             --workdir DIR [--tiny]
//   perfbench --negative-tests --workdir DIR
//
// Every run executes four phases — train, generate, serve, ingest — so that
// every end-to-end metric is measured in every run. An untraced run repeats
// rounds for --seconds; each round runs a slice of every phase, so each
// phase samples the whole window, and the workload gives its home phase,
// generate or serve, the larger share of a round. Times are read as a low
// quantile of many short operations (serve: the fastest half of its
// bursts), which tracks the program and not how busy the shared host was.
// With --trace 1 the run traces one Fit, the second half of the home phase
// and two ingest rounds, and reports per-layer metrics. The last stdout line
// is the result object {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/cpgan.h"
#include "data/edge_stream.h"
#include "data/synthetic.h"
#include "eval/community_eval.h"
#include "eval/graph_metrics.h"
#include "graph/binary_io.h"
#include "graph/io.h"
#include "host_probe.h"
#include "ledger.h"
#include "obs/json.h"
#include "obs/run_logger.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "tensor/kernels.h"
#include "train/checkpoint.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cpgan::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr double kMiB = 1024.0 * 1024.0;

/// Hierarchical assembly stops once the inter-community budget is spent, so
/// its edge count may fall short of the target; this is the accepted
/// shortfall (probes reached 92-96% of the target).
constexpr double kHierEdgeTolerance = 0.15;

/// Flat and hierarchical graphs per run whose fidelity is averaged. Fixed,
/// so the fidelity metrics are a deterministic function of the seed.
constexpr int kFidelityGraphs = 6;

/// Kernel pool size of every phase. On the reference host (4 vCPUs on a
/// shared machine) a pool of 2-4 threads made hierarchical generation
/// 0.9-2.7x slower than one thread and moved it by up to 3.5x between
/// minutes, while one thread stayed within +-12%; no regression bound could
/// be read through that. Serving still runs its clients and workers on
/// separate threads, so KernelLock contention shows in the serve metrics.
constexpr int kPoolThreads = 1;

/// Seed of the two graphs models are trained on. Training is chaotic: a
/// different fixture (or model seed) moves hier_deg_mmd by 80-170% and
/// hier_nmi by 20-60% across seeds, which would drown any fidelity or
/// hierarchical-decode regression. The models are therefore fixed, and the
/// workload seed drives everything they are asked to do: generation,
/// scoring and request seeds, and the ingest file.
constexpr uint64_t kTrainingFixtureSeed = 20220501;

/// mmap loads of the same .cpge per ingest round: a load is an order of
/// magnitude cheaper than the text parse, so one round gets several samples.
constexpr int kCpgeLoadsPerRound = 3;

/// The workload names the home phase, the one with the larger share of
/// every round.
enum class Workload { kGenerate, kServe };

const char* WorkloadName(Workload workload) {
  return workload == Workload::kGenerate ? "generate" : "serve";
}

struct Args {
  Workload workload = Workload::kGenerate;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool negative_tests = false;
  std::string workdir;
};

/// Input sizes and the work of one round. `tiny` is the self-test
/// configuration.
struct Sizes {
  // generate/train fixture and the CLI `generate` model.
  int gen_nodes = 3000;
  int64_t gen_edges = 12000;
  int gen_communities = 24;
  int model_epochs = 40;  // the model that generation decodes
  int slice_epochs = 8;   // each round's training Fit
  // serve fixture and the CLI `serve` model (library-default config).
  int serve_nodes = 600;
  int64_t serve_edges = 2400;
  int serve_communities = 12;
  int serve_epochs = 60;
  // ring+chord ingest file (200k edges).
  int64_t ingest_nodes = 20000;
  int ingest_chords = 9;
  // Rounds: at least `min_rounds`, more while the window lasts.
  int min_rounds = kFidelityGraphs;  // every run holds the fidelity graphs
  int burst_requests = 24;  // requests of one serve burst
  int home_pairs = 3, away_pairs = 1;    // flat+hier pairs per round
  int home_bursts = 4, away_bursts = 2;  // serve bursts per round
  int ingest_rounds = 2;                 // ingest rounds per round
  int setup_reps = 3;
};

Sizes TinySizes() {
  Sizes s;
  s.gen_nodes = 240;
  s.gen_edges = 900;
  s.gen_communities = 6;
  s.model_epochs = 4;
  s.slice_epochs = 4;
  s.serve_nodes = 120;
  s.serve_edges = 480;
  s.serve_communities = 4;
  s.serve_epochs = 3;
  s.ingest_nodes = 1000;
  s.min_rounds = 1;
  s.burst_requests = 8;
  s.home_pairs = 2;
  s.home_bursts = 2;
  s.away_bursts = 1;
  s.ingest_rounds = 1;
  s.setup_reps = 2;
  return s;
}

/// Independent seed stream `stream` of the workload seed (SplitMix64).
uint64_t Derive(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) >> 16;  // 48 bits: printable protocol seeds
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank quantile: the smallest sample with at least q of the
/// samples at or below it.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / v.size();
}

/// Attempted and failed operations; an operation fails when any of its
/// output checks fails.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
};

/// Everything set up before the timed phases.
struct Fixture {
  graph::Graph gen_graph{0};
  graph::Graph serve_graph{0};
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::Server> server;  // destroyed (stopped) first
  std::string ingest_text;
  std::string ingest_cpge;
  int64_t ingest_edges = 0;
  double warm_load_ms = 0.0;
};

/// Host probe time at the nominal host speed that every reported time is
/// scaled to: about the probe's median on the reference host.
constexpr double kNominalProbeMs = 6.0;

/// Times of one kind of operation, each with the host probe time around it:
/// the mean of the probes just before and just after.
struct Timings {
  std::vector<double> ms, probe_ms;

  void Add(double op_ms, double around_ms) {
    ms.push_back(op_ms);
    probe_ms.push_back(around_ms);
  }
  /// Each time at the nominal host speed.
  std::vector<double> Normalized() const {
    std::vector<double> out(ms.size());
    for (size_t i = 0; i < ms.size(); ++i) {
      out[i] = ms[i] * kNominalProbeMs / probe_ms[i];
    }
    return out;
  }
};

/// One closed-loop serve burst: its wall window, every round trip, and the
/// host probe time around it.
struct Burst {
  double seconds = 0.0;
  int64_t ok = 0;
  std::vector<double> latency_ms;
  double probe_ms = 0.0;
};

/// Raw samples of the timed phases.
struct Samples {
  // Mean epoch time of each complete cycle of the epoch schedule: the
  // discriminator and prior epochs recur once per cycle, so every sample
  // holds the same mix of epoch kinds.
  Timings epoch;
  // Per Fit. Only the first is reported: every Fit leaves about 1.5 MiB of
  // tracked tensor memory live after its model is destroyed, so later Fits
  // in the same process start from a higher baseline.
  std::vector<double> train_peak_mb;
  int64_t epochs = 0;
  Timings flat, hier, score;
  std::vector<double> flat_nmi, hier_nmi, hier_deg_mmd;
  std::vector<Burst> bursts;
  Timings text, convert, cpge;
};

/// Per-layer timings the benchmark takes itself around public calls (the
/// rest come from spans and registry counters).
struct CallTimes {
  double posterior_ms = 0, labels_ms = 0, flat_assemble_ms = 0,
         hier_assemble_ms = 0, community_eval_ms = 0, generation_metrics_ms = 0;
  int flat_graphs = 0, hier_graphs = 0;
  std::vector<double> protocol_us;
  double serve_client_ms = 0;
  double queue_depth_max = 0;
};

struct Context {
  Args args;
  Sizes sizes;
  int nproc = 1;
  Tally tally;
  std::unique_ptr<Fixture> fixture;
  std::unique_ptr<core::Cpgan> model;  // the CLI `generate` model
  Samples samples;
  CallTimes calls;
  // Per-phase tensor peaks of the traced Fit's run log.
  double encoder_peak_mb = 0, decoder_peak_mb = 0, discriminator_peak_mb = 0;
  std::map<std::string, int> pool_threads;  // pool size per phase
  // Progress of the generate and serve phases across their slices.
  int pairs_done = 0;
  int requests_sent = 0;
  std::vector<graph::Edge> first_hier;
  uint64_t first_hier_seed = 0;
  double peak_rss_mb = 0.0;  // max RSS after the first generate pair
  HostProbe probe;
};

/// Runs `op`, then the host probe; records the op's time in `timings` with
/// the probe times on both sides of it.
template <typename Fn>
void Timed(Context& ctx, Timings* timings, Fn&& op) {
  const double before = ctx.probe.last_ms();
  util::Timer timer;
  op();
  const double ms = timer.Millis();
  timings->Add(ms, 0.5 * (before + ctx.probe.Measure()));
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Records the kernel pool size a phase actually ran with.
void RecordPool(Context& ctx, const char* phase) {
  ctx.pool_threads[phase] = util::ThreadPool::Global().num_threads();
}

/// The CLI `generate` model (examples/cpgan_cli.cpp) with a shorter
/// schedule, trained with the kernel pool pinned to one thread.
core::CpganConfig GenerateModelConfig(int epochs) {
  core::CpganConfig config;
  config.epochs = epochs;
  config.subgraph_size = 256;
  config.feature_dim = 32;
  config.latent_dim = 32;
  config.num_threads = 1;
  return config;
}

void WipeDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
}

// ---------------------------------------------------------------- set-up

std::unique_ptr<Fixture> BuildFixture(Context& ctx) {
  const Args& args = ctx.args;
  const Sizes& sizes = ctx.sizes;
  auto f = std::make_unique<Fixture>();
  {
    CPGAN_TRACE_SPAN("bench/fixtures");
    data::CommunityGraphParams gen;
    gen.num_nodes = sizes.gen_nodes;
    gen.num_edges = sizes.gen_edges;
    gen.num_communities = sizes.gen_communities;
    util::Rng gen_rng(kTrainingFixtureSeed);
    f->gen_graph = data::MakeCommunityGraph(gen, gen_rng);

    data::CommunityGraphParams srv;
    srv.num_nodes = sizes.serve_nodes;
    srv.num_edges = sizes.serve_edges;
    srv.num_communities = sizes.serve_communities;
    util::Rng srv_rng(kTrainingFixtureSeed + 1);
    f->serve_graph = data::MakeCommunityGraph(srv, srv_rng);
  }

  // The CLI `serve` model: library-default config, trained at pool 1 with a
  // checkpoint, then warm-loaded from that checkpoint by the registry.
  core::CpganConfig serve_config;
  serve_config.epochs = sizes.serve_epochs;
  serve_config.num_threads = 1;
  serve_config.checkpoint_dir = args.workdir + "/serve_ckpt";
  serve_config.checkpoint_every = sizes.serve_epochs;
  WipeDir(serve_config.checkpoint_dir);
  {
    CPGAN_TRACE_SPAN("bench/serve_fit");
    core::Cpgan trainer(serve_config);
    core::TrainStats stats = trainer.Fit(f->serve_graph);
    ctx.tally.Op(trainer.trained() && stats.checkpoints_written > 0,
                 "setup: serve model training wrote no checkpoint");
  }
  serve::ModelSpec spec;
  spec.name = "default";
  spec.config = serve_config;
  spec.config.checkpoint_dir.clear();
  spec.graph = f->serve_graph;
  spec.checkpoint = train::LatestCheckpoint(serve_config.checkpoint_dir);
  f->registry = std::make_unique<serve::ModelRegistry>();
  {
    CPGAN_TRACE_SPAN("bench/warm_load");
    util::Timer timer;
    std::string error;
    bool ok = f->registry->AddModel(spec, &error);
    f->warm_load_ms = timer.Millis();
    ctx.tally.Op(ok, "setup: warm load failed: " + error);
  }
  RecordPool(ctx, "setup");
  f->server = std::make_unique<serve::Server>(f->registry.get(),
                                              serve::ServerOptions{});
  f->server->Start();

  {
    CPGAN_TRACE_SPAN("bench/ingest_file");
    data::RingChordSpec ring;
    ring.num_nodes = sizes.ingest_nodes;
    ring.chords = sizes.ingest_chords;
    ring.seed = Derive(args.seed, 3);
    f->ingest_text = args.workdir + "/ingest.txt";
    f->ingest_cpge = args.workdir + "/ingest.cpge";
    f->ingest_edges = data::RingChordEdgeCount(ring);
    ctx.tally.Op(data::WriteRingChordText(ring, f->ingest_text),
                 "setup: cannot write " + f->ingest_text);
  }
  return f;
}

// ------------------------------------------------------------------ phases

/// Loop control of rounds and home-phase slices: at least `min_ops`
/// operations, then more while the next one (estimated by the last) still
/// fits the budget.
class Budget {
 public:
  Budget(double seconds, int min_ops) : seconds_(seconds), min_ops_(min_ops) {}
  bool More() const {
    return done_ < min_ops_ || timer_.Seconds() + last_s_ <= seconds_;
  }
  void Done(double op_seconds) {
    ++done_;
    last_s_ = op_seconds;
  }

 private:
  util::Timer timer_;
  double seconds_;
  int min_ops_;
  int done_ = 0;
  double last_s_ = 0.0;
};

bool AllFinite(const std::vector<float>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](float x) { return std::isfinite(x); });
}

/// Reads a training run log: the mean epoch time of every complete cycle of
/// `cycle` epochs, recorded with the probe time around the Fit, and (traced
/// runs) the per-phase tensor peaks.
void ReadRunLog(const std::string& path, int cycle, double probe_ms,
                bool traced, Context* ctx) {
  std::map<int, std::pair<int, double>> cycles;  // cycle -> epochs, ms
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    obs::JsonValue json;
    obs::EpochRecord record;
    if (!obs::JsonValue::Parse(line, &json) ||
        !obs::EpochRecordFromJson(json, &record)) {
      continue;
    }
    auto& [epochs, ms] = cycles[record.epoch / cycle];
    ++epochs;
    ms += record.epoch_ms;
    if (!traced) continue;
    ctx->encoder_peak_mb =
        std::max(ctx->encoder_peak_mb, record.encoder_peak_bytes / kMiB);
    ctx->decoder_peak_mb =
        std::max(ctx->decoder_peak_mb, record.decoder_peak_bytes / kMiB);
    ctx->discriminator_peak_mb = std::max(
        ctx->discriminator_peak_mb, record.discriminator_peak_bytes / kMiB);
  }
  for (const auto& [index, epochs_ms] : cycles) {
    if (epochs_ms.first == cycle) {
      ctx->samples.epoch.Add(epochs_ms.second / cycle, probe_ms);
    }
  }
}

/// One Fit of the CLI `generate` model on the fixture. Epoch times come from
/// the Fit's run log. With `keep`, the model becomes the one the generate
/// phase decodes.
void TrainOnce(Context& ctx, int epochs, bool keep, bool traced) {
  core::CpganConfig config = GenerateModelConfig(epochs);
  config.metrics_out = ctx.args.workdir + "/train_runlog.jsonl";
  if (keep) ctx.model.reset();  // the tracked tensor peak must not include it
  auto model = std::make_unique<core::Cpgan>(config);
  core::TrainStats stats;
  const double probe_before = ctx.probe.last_ms();
  {
    CPGAN_TRACE_SPAN("bench/fit");
    stats = model->Fit(ctx.fixture->gen_graph);
  }
  const double probe_ms = 0.5 * (probe_before + ctx.probe.Measure());
  ctx.tally.Op(model->trained() && !stats.guard_exhausted &&
                   AllFinite(stats.d_loss) && AllFinite(stats.g_loss) &&
                   AllFinite(stats.clus_loss) &&
                   stats.metrics_records == epochs,
               "train: non-finite loss, exhausted guard, untrained model or "
               "missing run-log records");
  ctx.samples.train_peak_mb.push_back(stats.peak_bytes / kMiB);
  ctx.samples.epochs += epochs;
  ReadRunLog(config.metrics_out,
             std::lcm(std::max(config.disc_every, 1),
                      std::max(config.prior_every, 1)),
             probe_ms, traced, &ctx);
  if (keep) ctx.model = std::move(model);
  RecordPool(ctx, "train");
}

/// Generation by the public steps GenerateWith runs, each timed and wrapped
/// in a benchmark span (traced runs only).
graph::Graph GenerateBySteps(Context& ctx, const core::GenerateControls& controls,
                             int nodes, int64_t edges, util::Rng& rng) {
  const core::Cpgan& model = *ctx.model;
  CallTimes& calls = ctx.calls;
  std::vector<tensor::Matrix> latents;
  {
    CPGAN_TRACE_SPAN("bench/posterior_latents");
    util::Timer timer;
    latents = model.PosteriorMeanLatents();
    calls.posterior_ms += timer.Millis();
  }
  if (!controls.hierarchical) {
    CPGAN_TRACE_SPAN("bench/flat_assemble");
    util::Timer timer;
    graph::Graph g = model.GenerateFromLatents(latents, nodes, edges, controls,
                                               rng);
    calls.flat_assemble_ms += timer.Millis();
    ++calls.flat_graphs;
    return g;
  }
  std::vector<int> labels;
  {
    CPGAN_TRACE_SPAN("bench/community_labels");
    util::Timer timer;
    labels = model.LearnedCommunityLabels();
    calls.labels_ms += timer.Millis();
  }
  CPGAN_TRACE_SPAN("bench/hier_assemble");
  util::Timer timer;
  graph::Graph g = model.GenerateHierarchicalFromLatents(
      latents, labels, nodes, edges, controls, rng);
  calls.hier_assemble_ms += timer.Millis();
  ++calls.hier_graphs;
  return g;
}

/// `pairs` flat+hierarchical pairs at the observed size, one seed per graph;
/// every output is scored.
void GenerateSlice(Context& ctx, int pairs, bool traced) {
  const graph::Graph& observed = ctx.fixture->gen_graph;
  const int n = observed.num_nodes();
  const int64_t m = observed.num_edges();
  for (int p = 0; p < pairs; ++p) {
    const int i = 2 * ctx.pairs_done++;
    for (int hier = 0; hier < 2; ++hier) {
      core::GenerateControls controls;
      controls.hierarchical = hier == 1;
      const uint64_t seed = Derive(ctx.args.seed, 1000 + i + hier);
      util::Rng rng(seed);
      graph::Graph g(0);
      Timed(ctx, hier ? &ctx.samples.hier : &ctx.samples.flat, [&] {
        g = traced ? GenerateBySteps(ctx, controls, n, m, rng)
                   : ctx.model->GenerateWith(controls, rng);
      });

      const int64_t got = g.num_edges();
      bool edges_ok = hier ? got <= m && got >= (1.0 - kHierEdgeTolerance) * m
                           : got == m;
      ctx.tally.Op(g.num_nodes() == n && edges_ok,
                   std::string("generate: ") + (hier ? "hier" : "flat") +
                       " graph has n=" + std::to_string(g.num_nodes()) +
                       " m=" + std::to_string(got) + ", target n=" +
                       std::to_string(n) + " m=" + std::to_string(m));

      util::Rng eval_rng(Derive(ctx.args.seed, 2000 + i + hier));
      eval::CommunityMetrics community;
      eval::GenerationMetrics structure;
      Timed(ctx, &ctx.samples.score, [&] {
        CPGAN_TRACE_SPAN("bench/score");
        util::Timer t1;
        {
          CPGAN_TRACE_SPAN("bench/community_eval");
          community = eval::EvaluateCommunityPreservation(observed, g, eval_rng);
        }
        ctx.calls.community_eval_ms += t1.Millis();
        util::Timer t2;
        {
          CPGAN_TRACE_SPAN("bench/generation_metrics");
          structure = eval::ComputeGenerationMetrics(observed, g, eval_rng);
        }
        ctx.calls.generation_metrics_ms += t2.Millis();
      });

      // Fidelity: the first graphs of the run, so a deterministic function
      // of the seed.
      const bool fidelity = i / 2 < kFidelityGraphs;
      if (hier) {
        if (fidelity) {
          ctx.samples.hier_nmi.push_back(community.nmi);
          ctx.samples.hier_deg_mmd.push_back(structure.deg);
        }
        if (ctx.first_hier.empty()) {
          ctx.first_hier = g.Edges();
          ctx.first_hier_seed = seed;
        }
      } else if (fidelity) {
        ctx.samples.flat_nmi.push_back(community.nmi);
      }
    }
  }
  RecordPool(ctx, "generate");
}

/// Determinism: the first hierarchical seed, decoded again, must give a
/// bitwise-identical graph. Untraced runs only, so the replay stays out of
/// the per-layer figures.
void CheckGenerateReplay(Context& ctx) {
  core::GenerateControls controls;
  controls.hierarchical = true;
  util::Rng rng(ctx.first_hier_seed);
  ctx.tally.Op(ctx.model->GenerateWith(controls, rng).Edges() == ctx.first_hier,
               "generate: hierarchical replay differs from the first decode");
}

/// Request `index` of the serve mix: half flat at the observed size, a
/// quarter hierarchical, a quarter hierarchical at twice the observed size.
struct ServeRequest {
  std::string line;
  int nodes = 0;  // 0 = observed size
  bool hierarchical = false;
  uint64_t seed = 0;
};

ServeRequest MakeRequest(const Context& ctx, int index, const std::string& out) {
  ServeRequest r;
  const int kind = index % 4;
  r.hierarchical = kind >= 2;
  r.nodes = kind == 3 ? 2 * ctx.fixture->serve_graph.num_nodes() : 0;
  r.seed = Derive(ctx.args.seed, 100000 + index);
  r.line = "GENERATE seed=" + std::to_string(r.seed);
  if (r.hierarchical) r.line += " hier=1";
  if (r.nodes > 0) r.line += " nodes=" + std::to_string(r.nodes);
  if (!out.empty()) r.line += " out=" + out;
  return r;
}

bool ResponseOk(const ServeRequest& request, const std::string& line,
                int observed_nodes, std::string* why) {
  serve::Response response;
  if (!serve::ParseResponse(line, &response)) {
    *why = "unparseable response '" + line + "'";
    return false;
  }
  const int want = request.nodes > 0 ? request.nodes : observed_nodes;
  if (response.status != serve::ResponseStatus::kOk || response.nodes != want) {
    *why = "'" + request.line + "' -> '" + line + "'";
    return false;
  }
  return true;
}

/// Replay: a flat, a hierarchical and a sized hierarchical seed re-issued
/// with out= must write exactly what the registry's model decodes. Untraced
/// runs only, like the generate replay.
void CheckServeReplays(Context& ctx) {
  serve::Server& server = *ctx.fixture->server;
  const int observed = ctx.fixture->serve_graph.num_nodes();
  auto model = ctx.fixture->registry->Find("default");
  for (int index : {0, 2, 3}) {
    const std::string path = ctx.args.workdir + "/replay_" +
                             std::to_string(index) + ".txt";
    ServeRequest request = MakeRequest(ctx, index, path);
    bool quit = false;
    std::string line = server.HandleLine(request.line, &quit);
    std::string why;
    bool ok = ResponseOk(request, line, observed, &why);
    if (ok) {
      core::GenerateControls controls;
      controls.num_nodes = request.nodes;
      controls.hierarchical = request.hierarchical;
      util::Rng rng(request.seed);
      graph::Graph expected(0);
      {
        std::lock_guard<std::mutex> kernel(serve::KernelLock());
        expected = model->Generate(controls, rng);
      }
      ok = ReplayFileMatches(path, expected, &why);
    }
    ctx.tally.Op(ok, "serve: replay of request " + std::to_string(index) +
                         ": " + why);
  }
}

/// A burst of `requests` requests from a closed loop of `nproc` clients
/// without think time, each sending its next protocol line once the previous
/// response arrived.
void ServeBurst(Context& ctx, int requests, bool traced) {
  serve::Server& server = *ctx.fixture->server;
  const int observed = ctx.fixture->serve_graph.num_nodes();
  const int clients = ctx.nproc;
  const int first = ctx.requests_sent;
  const int end = first + requests;
  ctx.requests_sent = end;

  struct Sample {
    ServeRequest request;
    std::string response;
    double ms = 0.0;
  };
  std::vector<std::vector<Sample>> per_client(clients);
  std::atomic<int> next{first};
  std::atomic<bool> running{true};
  util::Timer window;
  auto client = [&](int c) {
    for (;;) {
      const int i = next.fetch_add(1);
      if (i >= end) return;
      Sample s;
      s.request = MakeRequest(ctx, i, "");
      bool quit = false;
      util::Timer timer;
      {
        CPGAN_TRACE_SPAN("bench/handle_line");
        s.response = server.HandleLine(s.request.line, &quit);
      }
      s.ms = timer.Millis();
      per_client[c].push_back(std::move(s));
    }
  };
  double depth_max = 0.0;
  std::thread sampler;
  if (traced) {
    // Not load: polls the queue-depth gauge while the clients run.
    sampler = std::thread([&] {
      while (running.load()) {
        depth_max = std::max(depth_max, GaugeValue("serve.queue_depth"));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  const double probe_before = ctx.probe.last_ms();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (auto& t : threads) t.join();
  Burst burst;
  burst.seconds = window.Seconds();
  running = false;
  if (sampler.joinable()) sampler.join();
  burst.probe_ms = 0.5 * (probe_before + ctx.probe.Measure());
  ctx.calls.queue_depth_max = std::max(ctx.calls.queue_depth_max, depth_max);

  for (const auto& samples : per_client) {
    for (const Sample& s : samples) {
      std::string why;
      bool ok = ResponseOk(s.request, s.response, observed, &why);
      ctx.tally.Op(ok, "serve: " + why);
      if (ok) ++burst.ok;
      burst.latency_ms.push_back(s.ms);
      ctx.calls.serve_client_ms += s.ms;
      if (traced) {
        // The wire-format cost of this exchange, timed on the same lines.
        serve::Request parsed;
        serve::Response response;
        std::string error;
        serve::ParseResponse(s.response, &response);
        util::Timer timer;
        serve::ParseRequest(s.request.line, &parsed, &error);
        std::string formatted = serve::FormatResponse(response);
        ctx.calls.protocol_us.push_back(timer.Micros());
      }
    }
  }
  ctx.samples.bursts.push_back(std::move(burst));
  RecordPool(ctx, "serve");
}

/// One round of text load, conversion to .cpge, and mmap loads of the
/// ring+chord file; both CSRs must match edge for edge, with no skipped
/// input.
void IngestRound(Context& ctx) {
  const Fixture& f = *ctx.fixture;
  graph::LoadResult text;
  Timed(ctx, &ctx.samples.text, [&] {
    CPGAN_TRACE_SPAN("bench/text_load");
    text = graph::LoadEdgeListDetailed(f.ingest_text);
  });
  ctx.tally.Op(text.ok() && text.total_skipped() == 0 &&
                   text.graph->num_edges() == f.ingest_edges,
               "ingest: text load failed or skipped input: " + text.error);

  graph::ConvertResult converted;
  Timed(ctx, &ctx.samples.convert, [&] {
    CPGAN_TRACE_SPAN("bench/convert");
    converted = graph::ConvertEdgeListToBinary(f.ingest_text, f.ingest_cpge);
  });
  ctx.tally.Op(converted.ok() && converted.total_skipped() == 0 &&
                   converted.num_edges == f.ingest_edges,
               "ingest: convert failed or skipped input: " + converted.error);

  for (int k = 0; k < kCpgeLoadsPerRound; ++k) {
    graph::LoadResult binary;
    Timed(ctx, &ctx.samples.cpge, [&] {
      CPGAN_TRACE_SPAN("bench/cpge_load");
      binary = graph::LoadBinaryEdgeListDetailed(f.ingest_cpge);
    });
    std::string why = binary.error;
    bool ok = binary.ok() && binary.total_skipped() == 0 && text.ok() &&
              SameCsr(*text.graph, *binary.graph, &why);
    ctx.tally.Op(ok, "ingest: .cpge CSR differs from the text CSR: " + why);
  }
  RecordPool(ctx, "ingest");
}

// ------------------------------------------------------------------ report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ResultLine(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}


/// Serve figures of a run, every burst at the probe's nominal host speed:
/// rps is the ok responses over the summed windows, p50 and p95 are
/// quantiles of the pooled round trips.
struct ServeFigures {
  double rps = 0.0, p50_ms = 0.0, p95_ms = 0.0;
};

ServeFigures ServeOf(const std::vector<Burst>& bursts) {
  ServeFigures f;
  std::vector<double> latency_ms;
  double ok = 0.0, seconds = 0.0;
  for (const Burst& b : bursts) {
    const double scale = kNominalProbeMs / b.probe_ms;
    ok += b.ok;
    seconds += b.seconds * scale;
    for (double ms : b.latency_ms) latency_ms.push_back(ms * scale);
  }
  if (seconds > 0.0) f.rps = ok / seconds;
  f.p50_ms = Median(latency_ms);
  f.p95_ms = Quantile(latency_ms, 0.95);
  return f;
}

std::vector<Metric> EndToEnd(const Context& ctx, const Timings& setup) {
  const Samples& s = ctx.samples;
  const double edges = static_cast<double>(ctx.fixture->ingest_edges);
  const ServeFigures serve = ServeOf(s.bursts);
  return {
      {"setup_s", Median(setup.Normalized()) * 1e-3, "s"},
      {"peak_rss_mb", ctx.peak_rss_mb, "MiB"},
      {"train_epoch_ms", Median(s.epoch.Normalized()), "ms"},
      {"train_peak_mb", s.train_peak_mb.front(), "MiB"},
      {"gen_flat_ms", Median(s.flat.Normalized()), "ms"},
      {"gen_hier_ms", Median(s.hier.Normalized()), "ms"},
      {"score_ms", Median(s.score.Normalized()), "ms"},
      {"flat_nmi", Mean(s.flat_nmi), "1"},
      {"hier_nmi", Mean(s.hier_nmi), "1"},
      {"hier_deg_mmd", Mean(s.hier_deg_mmd), "1"},
      {"serve_rps", serve.rps, "req/s"},
      {"serve_p50_ms", serve.p50_ms, "ms"},
      {"serve_p95_ms", serve.p95_ms, "ms"},
      {"load_text_edges_per_s", edges * 1e3 / Median(s.text.Normalized()),
       "edges/s"},
      {"load_cpge_edges_per_s", edges * 1e3 / Median(s.cpge.Normalized()),
       "edges/s"},
      {"convert_edges_per_s", edges * 1e3 / Median(s.convert.Normalized()),
       "edges/s"},
  };
}

/// The home phase's headline time, compared traced versus untraced.
double HomeTime(const Context& ctx) {
  const Samples& s = ctx.samples;
  return ctx.args.workload == Workload::kGenerate
             ? Median(s.flat.Normalized()) + Median(s.hier.Normalized())
             : ServeOf(s.bursts).p50_ms;
}

/// Work units of the home phase: graphs or requests.
double HomeUnits(const Context& ctx) {
  const Samples& s = ctx.samples;
  size_t units = s.flat.ms.size() + s.hier.ms.size();
  if (ctx.args.workload == Workload::kServe) {
    units = 0;
    for (const Burst& b : s.bursts) units += b.latency_ms.size();
  }
  return std::max<double>(units, 1.0);
}

/// What a traced run collects: one span ledger per traced section and
/// registry snapshots around them.
struct Traced {
  SpanLedger setup, train, home, ingest;
  RegistrySnapshot start, after_setup, before_home, after_home, after_ingest;
  double epochs = 1.0;  // epochs of the traced Fit
  double overhead_pct = 0.0;
};

/// Per-layer metrics. Train-layer values come from the traced Fit (per
/// epoch), ingest-layer values from the traced ingest pass (per call), model
/// builds from set-up plus that Fit, and everything else from the traced
/// half of the home phase (per graph or per request).
std::vector<Metric> PerLayer(const Context& ctx, const Traced& t) {
  const double u = HomeUnits(ctx);
  const double e = t.epochs;
  const CallTimes& c = ctx.calls;
  const SpanLedger& home = t.home;
  auto delta = [&](const std::string& name) {
    return static_cast<double>(t.after_home.Counter(name) -
                               t.before_home.Counter(name));
  };
  auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };
  auto ingest_ms = [&](const std::string& name) {
    return per((t.after_ingest.StopwatchNanos(name) -
                t.after_home.StopwatchNanos(name)) * 1e-6,
               t.after_ingest.StopwatchCount(name) -
                   t.after_home.StopwatchCount(name));
  };
  const double regions = delta("threadpool/regions");

  // Model builds: the serve model's Fit and warm load in set-up, and the
  // traced Fit of the generate model.
  const double builds = t.setup.Calls("bench/serve_fit") +
                        t.setup.Calls("bench/warm_load") +
                        t.train.Calls("bench/fit");
  const double spectral = t.setup.Ms("graph/spectral_embedding") +
                          t.train.Ms("graph/spectral_embedding");
  const double louvain_build =
      t.setup.Ms("community/louvain") + t.train.Ms("community/louvain");
  const double flat_decoder = home.Ms("decoder/", "bench/flat_assemble");

  // serve/request and serve/decode close on the server's worker threads.
  const double requests = std::max<double>(home.Calls("serve/request"), 1.0);
  const double checkpoint_ms =
      per((t.after_setup.StopwatchNanos("train/checkpoint_write") -
           t.start.StopwatchNanos("train/checkpoint_write")) * 1e-6,
          t.after_setup.StopwatchCount("train/checkpoint_write") -
              t.start.StopwatchCount("train/checkpoint_write"));
  auto file_mb = [](const std::string& path) {
    std::error_code ec;
    auto size = fs::file_size(path, ec);
    return ec ? 0.0 : size / kMiB;
  };

  return {
      {"tensor.matmul_ms", home.Ms("tensor/matmul") / u, "ms"},
      {"tensor.matmul_calls", home.Calls("tensor/matmul") / u, "count"},
      {"tensor.spmm_ms", home.Ms("tensor/spmm") / u, "ms"},
      {"tensor.spmm_calls", home.Calls("tensor/spmm") / u, "count"},
      {"tensor.backward_ms", t.train.Ms("train/backward") / e, "ms"},
      {"tensor.optimizer_ms", t.train.Ms("train/optimizer") / e, "ms"},
      {"core.encoder_ms", t.train.Ms("encoder/") / e, "ms"},
      {"core.decoder_ms", home.Ms("decoder/") / u, "ms"},
      {"core.discriminator_ms", t.train.Ms("discriminator/forward") / e, "ms"},
      {"core.sample_ms", t.train.Ms("train/sample") / e, "ms"},
      {"core.encoder_peak_mb", ctx.encoder_peak_mb, "MiB"},
      {"core.decoder_peak_mb", ctx.decoder_peak_mb, "MiB"},
      {"core.discriminator_peak_mb", ctx.discriminator_peak_mb, "MiB"},
      {"core.posterior_latents_ms", c.posterior_ms / u, "ms"},
      {"core.community_labels_ms", per(c.labels_ms, c.hier_graphs), "ms"},
      {"core.flat_assemble_ms", per(c.flat_assemble_ms, c.flat_graphs), "ms"},
      {"core.assembly_self_ms",
       per(c.flat_assemble_ms - flat_decoder, c.flat_graphs), "ms"},
      {"core.decode_calls", home.Calls("decoder/decode") / u, "count"},
      {"core.hier_assemble_ms", per(c.hier_assemble_ms, c.hier_graphs), "ms"},
      {"hier.probe_ms", home.Ms("hier/probe") / u, "ms"},
      {"hier.intra_wave_ms", home.Ms("hier/intra_wave") / u, "ms"},
      {"hier.stitch_wave_ms", home.Ms("hier/stitch_wave") / u, "ms"},
      {"hier.waves", delta("hier.waves") / u, "count"},
      {"util.pool_regions", regions / u, "count"},
      {"util.pool_inline_regions", delta("threadpool/inline_regions") / u,
       "count"},
      {"util.pool_chunks", delta("threadpool/chunks") / u, "count"},
      {"util.pool_imbalance",
       regions > 0 ? GaugeValue("threadpool/imbalance") : 0.0, "1"},
      {"eval.community_ms", c.community_eval_ms / u, "ms"},
      {"eval.generation_metrics_ms", c.generation_metrics_ms / u, "ms"},
      {"community.louvain_ms", home.Ms("community/louvain", "bench/score") / u,
       "ms"},
      {"eval.mmd_ms", home.Ms("eval/mmd") / u, "ms"},
      {"graph.spectral_ms", per(spectral, builds), "ms"},
      {"community.louvain_build_ms", per(louvain_build, builds), "ms"},
      {"serve.queue_wait_ms",
       (c.serve_client_ms - home.Ms("serve/request")) / requests, "ms"},
      {"serve.decode_ms", home.Ms("serve/decode") / requests, "ms"},
      {"serve.lock_wait_ms", home.SelfMs("serve/decode") / requests, "ms"},
      {"serve.protocol_us", Median(c.protocol_us), "us"},
      {"serve.queue_depth_max", c.queue_depth_max, "count"},
      {"serve.warm_load_ms", ctx.fixture->warm_load_ms, "ms"},
      {"train.checkpoint_write_ms", checkpoint_ms, "ms"},
      {"graph.cpge_crc_ms", ingest_ms("ingest.mmap.crc"), "ms"},
      {"graph.csr_build_ms", ingest_ms("ingest.csr.build"), "ms"},
      {"graph.cpge_load_ms", ingest_ms("ingest.mmap.load"), "ms"},
      {"graph.convert_ms", ingest_ms("ingest.convert"), "ms"},
      {"graph.csr_mb", GaugeValue("ingest.csr.bytes") / kMiB, "MiB"},
      {"graph.text_mb", file_mb(ctx.fixture->ingest_text), "MiB"},
      {"graph.cpge_mb", file_mb(ctx.fixture->ingest_cpge), "MiB"},
      {"obs.trace_overhead_pct", t.overhead_pct, "%"},
  };
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Run context, printed as one JSON line before the result.
void PrintContext(const Context& ctx) {
  obs::JsonValue json = obs::JsonValue::Object();
  json.Add("workload", obs::JsonValue::String(WorkloadName(ctx.args.workload)));
  json.Add("seed", obs::JsonValue::Int(static_cast<int64_t>(ctx.args.seed)));
  json.Add("seconds", obs::JsonValue::Number(ctx.args.seconds));
  json.Add("trace", obs::JsonValue::Bool(ctx.args.trace));
  json.Add("nproc", obs::JsonValue::Int(ctx.nproc));
  json.Add("cpu_model", obs::JsonValue::String(CpuModel()));
  json.Add("build_type", obs::JsonValue::String(PERFBENCH_BUILD_TYPE));
  json.Add("kernel_backend",
           obs::JsonValue::String(tensor::kernels::Active().name));
  json.Add("matmul_tile_cols",
           obs::JsonValue::Number(GaugeValue("kernels.matmul_tile_cols")));
  obs::JsonValue pools = obs::JsonValue::Object();
  for (const auto& [phase, threads] : ctx.pool_threads) {
    pools.Add(phase, obs::JsonValue::Int(threads));
  }
  json.Add("pool_threads", std::move(pools));
  obs::JsonValue wrapper = obs::JsonValue::Object();
  wrapper.Add("context", std::move(json));
  std::printf("%s\n", wrapper.Serialize().c_str());
}

void PrintTable(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

// ------------------------------------------------------------------- runs

/// Home-phase slices for `seconds` (at least as many as one round holds):
/// flat+hierarchical pairs or serve bursts.
void RunHome(Context& ctx, double seconds, bool traced) {
  const Sizes& z = ctx.sizes;
  const bool generate = ctx.args.workload == Workload::kGenerate;
  Budget budget(seconds, generate ? z.home_pairs : z.home_bursts);
  while (budget.More()) {
    util::Timer timer;
    if (generate) {
      GenerateSlice(ctx, 1, traced);
    } else {
      ServeBurst(ctx, z.burst_requests, traced);
    }
    budget.Done(timer.Seconds());
  }
}

/// The untraced window: the Fit of the model generation decodes, one
/// generate pair, then rounds of every phase for `seconds`, the home phase
/// with the larger share.
void RunRounds(Context& ctx, double seconds) {
  const Sizes& z = ctx.sizes;
  const bool generate = ctx.args.workload == Workload::kGenerate;
  const int pairs = generate ? z.home_pairs : z.away_pairs;
  const int bursts = generate ? z.away_bursts : z.home_bursts;
  Budget budget(seconds, z.min_rounds);
  TrainOnce(ctx, z.model_epochs, /*keep=*/true, /*traced=*/false);
  // Peak RSS after a fixed, single-threaded history: set-up, the model Fit
  // and one flat+hierarchical pair, the largest single footprint. Later
  // work adds allocator arenas of the serve threads and fragmentation that
  // depend on thread timing; they moved the figure by up to 60% between
  // runs.
  GenerateSlice(ctx, 1, false);
  ctx.peak_rss_mb = PeakRssMiB();
  while (budget.More()) {
    util::Timer round;
    TrainOnce(ctx, z.slice_epochs, /*keep=*/false, /*traced=*/false);
    GenerateSlice(ctx, pairs, false);
    for (int b = 0; b < bursts; ++b) ServeBurst(ctx, z.burst_requests, false);
    for (int r = 0; r < z.ingest_rounds; ++r) IngestRound(ctx);
    budget.Done(round.Seconds());
  }
}

/// Prints the context line, the metric table and, last, the result line. A
/// metric that is not finite fails the run and prints as 0.
void Finish(Context& ctx, std::vector<Metric> metrics) {
  for (Metric& m : metrics) {
    ctx.tally.Op(std::isfinite(m.value), "metric " + m.name + " is not finite");
    if (!std::isfinite(m.value)) m.value = 0.0;
  }
  PrintContext(ctx);
  PrintTable(metrics);
  std::printf("%s\n", ResultLine(ctx.tally, metrics).c_str());
}

void Run(Context& ctx) {
  const Args& args = ctx.args;
  const Sizes& z = ctx.sizes;
  util::ThreadPool::SetGlobalThreads(kPoolThreads);
  Traced t;
  t.start = RegistrySnapshot::Take();
  Timings setup;
  obs::SetTracingEnabled(args.trace);
  for (int rep = 0; rep < (args.trace ? 1 : z.setup_reps); ++rep) {
    ctx.fixture.reset();
    Timed(ctx, &setup, [&] { ctx.fixture = BuildFixture(ctx); });
  }
  obs::SetTracingEnabled(false);

  if (!args.trace) {
    RunRounds(ctx, args.seconds);
    CheckGenerateReplay(ctx);
    CheckServeReplays(ctx);
    Finish(ctx, EndToEnd(ctx, setup));
    return;
  }

  // Traced sections: one Fit, the home phase (untraced half, then traced
  // half), and two ingest rounds.
  t.setup = SpanLedger::Collect();
  t.after_setup = RegistrySnapshot::Take();
  obs::ResetTraces();
  obs::SetTracingEnabled(true);
  TrainOnce(ctx, z.model_epochs, /*keep=*/true, /*traced=*/true);
  obs::SetTracingEnabled(false);
  t.train = SpanLedger::Collect();
  t.epochs = static_cast<double>(ctx.samples.epochs);
  obs::ResetTraces();

  ctx.samples = Samples{};
  RunHome(ctx, args.seconds / 2, false);
  const double untraced = HomeTime(ctx);
  ctx.samples = Samples{};
  ctx.calls = CallTimes{};
  t.before_home = RegistrySnapshot::Take();
  obs::SetTracingEnabled(true);
  RunHome(ctx, args.seconds / 2, true);
  obs::SetTracingEnabled(false);
  t.after_home = RegistrySnapshot::Take();
  t.home = SpanLedger::Collect();
  t.overhead_pct = 100.0 * (HomeTime(ctx) - untraced) / untraced;
  obs::ResetTraces();

  obs::SetTracingEnabled(true);
  for (int r = 0; r < 2; ++r) IngestRound(ctx);
  obs::SetTracingEnabled(false);
  t.after_ingest = RegistrySnapshot::Take();
  t.ingest = SpanLedger::Collect();

  t.setup.Print(stdout, "set-up");
  t.train.Print(stdout, "train");
  t.home.Print(stdout, WorkloadName(args.workload));
  t.ingest.Print(stdout, "ingest");
  Finish(ctx, PerLayer(ctx, t));
}

// --------------------------------------------------------- negative tests

/// The output checks must reject a corrupted serve replay file and a .cpge
/// with one record dropped. Returns 0 when both checks behave.
int NegativeTests(const std::string& dir) {
  int failures = 0;
  auto expect = [&failures](bool cond, const char* what) {
    std::fprintf(stderr, "negative-tests: %-52s %s\n", what,
                 cond ? "ok" : "FAILED");
    if (!cond) ++failures;
  };
  data::CommunityGraphParams params;
  params.num_nodes = 80;
  params.num_edges = 240;
  params.num_communities = 4;
  util::Rng rng(7);
  graph::Graph g = data::MakeCommunityGraph(params, rng);
  std::vector<graph::Edge> edges = g.Edges();

  // Serve replay: one edge rewired to a non-edge.
  auto write_replay = [&](const std::string& path,
                          const std::vector<graph::Edge>& list) {
    std::ofstream out(path);
    for (const auto& [u, v] : list) out << u << ' ' << v << '\n';
  };
  const std::string replay = dir + "/replay.txt";
  write_replay(replay, edges);
  std::string why;
  expect(ReplayFileMatches(replay, g, &why), "replay file of the same graph matches");
  std::vector<graph::Edge> changed = edges;
  for (int v = 0; v < g.num_nodes(); ++v) {
    if (v != changed[0].first && !g.HasEdge(changed[0].first, v)) {
      changed[0].second = v;
      break;
    }
  }
  write_replay(replay, changed);
  expect(!ReplayFileMatches(replay, g, &why), "replay file with one edge changed fails");

  // Ingest: a .cpge missing one record against the text CSR.
  data::RingChordSpec ring;
  ring.num_nodes = 500;
  ring.chords = 3;
  const std::string text = dir + "/ring.txt";
  const std::string cpge = dir + "/ring.cpge";
  data::WriteRingChordText(ring, text);
  graph::ConvertEdgeListToBinary(text, cpge);
  graph::LoadResult a = graph::LoadEdgeListDetailed(text);
  graph::LoadResult b = graph::LoadBinaryEdgeListDetailed(cpge);
  expect(a.ok() && b.ok() && SameCsr(*a.graph, *b.graph, &why),
         ".cpge converted from the text file matches");
  std::vector<graph::Edge> dropped = a.graph->Edges();
  dropped.erase(dropped.begin() + dropped.size() / 2);
  graph::SaveBinaryEdgeList(graph::Graph(a.graph->num_nodes(), dropped), cpge);
  graph::LoadResult c = graph::LoadBinaryEdgeListDetailed(cpge);
  expect(a.ok() && c.ok() && !SameCsr(*a.graph, *c.graph, &why),
         ".cpge with one record dropped fails");
  return failures == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (flag == "--tiny") {
      args->tiny = true;
    } else if (flag == "--negative-tests") {
      args->negative_tests = true;
    } else if (flag == "--workload" && value(&v)) {
      if (v == "generate") args->workload = Workload::kGenerate;
      else if (v == "serve") args->workload = Workload::kServe;
      else return false;
    } else if (flag == "--seed" && value(&v)) {
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds" && value(&v)) {
      args->seconds = std::atof(v.c_str());
    } else if (flag == "--trace" && value(&v)) {
      args->trace = v == "1";
    } else if (flag == "--workdir" && value(&v)) {
      args->workdir = v;

    } else {
      return false;
    }
  }
  return !args->workdir.empty();
}

}  // namespace
}  // namespace cpgan::perfbench

int main(int argc, char** argv) {
  using namespace cpgan::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload generate|serve --seed N "
                 "--seconds S --trace 0|1 --workdir DIR [--tiny]\n"
                 "       perfbench --negative-tests --workdir DIR\n");
    return 2;
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing a '%s' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n", PERFBENCH_BUILD_TYPE);
    return 2;
  }
  if (args.negative_tests) return NegativeTests(args.workdir);
  Context ctx;
  ctx.args = args;
  ctx.sizes = args.tiny ? TinySizes() : Sizes{};
  ctx.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  Run(ctx);
  return 0;
}
