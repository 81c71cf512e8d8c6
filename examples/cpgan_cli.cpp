// Command-line front end for the library — the workflow an adopter of this
// repo would script against:
//
//   cpgan_cli stats    <graph>                      # Table II-style summary
//   cpgan_cli generate [flags] <model> <graph> [out.txt]   # fit + generate
//   cpgan_cli convert  [flags] <graph.txt> <out.cpge>  # text -> binary ingest
//   cpgan_cli compare  <graph-a> <graph-b>          # all evaluation metrics
//   cpgan_cli datasets                              # list synthetic datasets
//   cpgan_cli obs-report [flags]                    # merge telemetry files
//
// <graph> is either a named synthetic dataset (see `datasets`) or a path to
// a whitespace edge-list file. <model> is any traditional generator name
// ("E-R", "BTER", ...) or "CPGAN".
//
// global flags (any command):
//   --threads=N            size of the kernel thread pool (default: the
//                          CPGAN_NUM_THREADS env var, else all cores);
//                          results are identical for any N
//   --kernel-backend=NAME  SIMD kernel backend: scalar or avx2
//                          (default: the CPGAN_KERNEL_BACKEND env var,
//                          else CPUID auto-detection)
//
// generate flags (CPGAN only):
//   --checkpoint-dir=DIR   write periodic training checkpoints into DIR
//   --checkpoint-every=N   checkpoint period in epochs (default 100)
//   --resume               continue from the latest checkpoint in DIR
//   --strict-io            fail on malformed/self-loop/duplicate edges
//   --metrics-out=FILE     structured run log: one JSONL record per epoch
//   --metrics-snapshot-every=N  also embed a registry snapshot line in the
//                          run log every N epochs (default: off)
//   --profile              print a trace-span profile table after training
//   --trace=FILE           write Chrome trace_event JSON (chrome://tracing)
//   --coreset-size=N       train on a sensitivity-sampled coreset of <= N
//                          nodes instead of the full graph
//   --mem-budget-mb=M      RAM budget for ingest + training (MiB); the run
//                          exits nonzero if the tracked peak exceeds it
// (see docs/OBSERVABILITY.md and docs/INTERNALS.md, "Streaming ingest")

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "community/louvain.h"
#include "core/cpgan.h"
#include "data/datasets.h"
#include "data/loader.h"
#include "eval/community_eval.h"
#include "eval/graph_metrics.h"
#include "eval/report.h"
#include "generators/registry.h"
#include "graph/binary_io.h"
#include "graph/io.h"
#include "graph/stats.h"
#include "obs/report.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "tensor/kernels.h"
#include "train/checkpoint.h"
#include "train/signal.h"
#include "util/memory_tracker.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace {

using namespace cpgan;

struct GenerateOptions {
  std::string checkpoint_dir;
  int checkpoint_every = 100;
  bool resume = false;
  bool strict_io = false;
  std::string metrics_out;
  int metrics_snapshot_every = 0;
  bool profile = false;
  std::string trace_out;
  int coreset_size = 0;
  int64_t mem_budget_mb = 0;
  bool hierarchical = false;
};

/// Parses one `--flag` or `--flag=value` argument into `options`. Returns
/// false (with a message on stderr) for unknown flags or bad values.
bool ParseGenerateFlag(const std::string& arg, GenerateOptions* options) {
  const std::string kDir = "--checkpoint-dir=";
  const std::string kEvery = "--checkpoint-every=";
  if (arg.rfind(kDir, 0) == 0) {
    options->checkpoint_dir = arg.substr(kDir.size());
    if (options->checkpoint_dir.empty()) {
      std::fprintf(stderr, "--checkpoint-dir needs a directory\n");
      return false;
    }
    return true;
  }
  if (arg.rfind(kEvery, 0) == 0) {
    options->checkpoint_every = std::atoi(arg.c_str() + kEvery.size());
    if (options->checkpoint_every <= 0) {
      std::fprintf(stderr, "--checkpoint-every needs a positive integer\n");
      return false;
    }
    return true;
  }
  if (arg == "--resume") {
    options->resume = true;
    return true;
  }
  if (arg == "--strict-io") {
    options->strict_io = true;
    return true;
  }
  const std::string kMetricsOut = "--metrics-out=";
  if (arg.rfind(kMetricsOut, 0) == 0) {
    options->metrics_out = arg.substr(kMetricsOut.size());
    if (options->metrics_out.empty()) {
      std::fprintf(stderr, "--metrics-out needs a file path\n");
      return false;
    }
    return true;
  }
  const std::string kSnapshotEvery = "--metrics-snapshot-every=";
  if (arg.rfind(kSnapshotEvery, 0) == 0) {
    options->metrics_snapshot_every =
        std::atoi(arg.c_str() + kSnapshotEvery.size());
    if (options->metrics_snapshot_every <= 0) {
      std::fprintf(stderr,
                   "--metrics-snapshot-every needs a positive integer\n");
      return false;
    }
    return true;
  }
  if (arg == "--profile") {
    options->profile = true;
    return true;
  }
  if (arg == "--hierarchical") {
    options->hierarchical = true;
    return true;
  }
  const std::string kCoreset = "--coreset-size=";
  if (arg.rfind(kCoreset, 0) == 0) {
    options->coreset_size = std::atoi(arg.c_str() + kCoreset.size());
    if (options->coreset_size <= 1) {
      std::fprintf(stderr, "--coreset-size needs an integer > 1\n");
      return false;
    }
    return true;
  }
  const std::string kBudget = "--mem-budget-mb=";
  if (arg.rfind(kBudget, 0) == 0) {
    options->mem_budget_mb = std::atoll(arg.c_str() + kBudget.size());
    if (options->mem_budget_mb <= 0) {
      std::fprintf(stderr, "--mem-budget-mb needs a positive integer\n");
      return false;
    }
    return true;
  }
  const std::string kTrace = "--trace=";
  if (arg.rfind(kTrace, 0) == 0) {
    options->trace_out = arg.substr(kTrace.size());
    if (options->trace_out.empty()) {
      std::fprintf(stderr, "--trace needs a file path\n");
      return false;
    }
    return true;
  }
  std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
  return false;
}

int CmdDatasets() {
  std::printf("Built-in synthetic datasets (DESIGN.md section 3):\n");
  for (const std::string& name : data::DatasetNames()) {
    graph::Graph g = data::MakeDataset(name);
    std::printf("  %-16s n=%-6d m=%lld\n", name.c_str(), g.num_nodes(),
                static_cast<long long>(g.num_edges()));
  }
  return 0;
}

int CmdStats(const std::string& ref) {
  graph::Graph g = data::LoadGraph(ref);
  util::Rng rng(1);
  graph::GraphSummary s = graph::ComputeSummary(g, rng);
  community::LouvainResult louvain = community::Louvain(g, rng);
  std::printf("graph            %s\n", ref.c_str());
  std::printf("nodes            %d\n", s.num_nodes);
  std::printf("edges            %lld\n", static_cast<long long>(s.num_edges));
  std::printf("communities      %d (Louvain, Q=%.3f)\n",
              louvain.FinalPartition().num_communities(), louvain.modularity);
  std::printf("mean degree      %.3f\n", s.mean_degree);
  std::printf("CPL              %.3f\n", s.cpl);
  std::printf("GINI             %.3f\n", s.gini);
  std::printf("power-law exp.   %.3f\n", s.power_law_exponent);
  std::printf("clustering       %.3f\n", s.avg_clustering);
  std::printf("assortativity    %.3f\n", graph::DegreeAssortativity(g));
  return 0;
}

int CmdGenerate(const std::string& model, const std::string& ref,
                const std::string& out, const GenerateOptions& options) {
  // Arm the RAM budget before loading so out-of-core ingest (mmap CSR
  // construction) is covered by the same cap as training.
  if (options.mem_budget_mb > 0) {
    util::MemoryTracker::Global().SetBudgetBytes(options.mem_budget_mb << 20);
  }
  graph::LoadOptions load_options;
  load_options.strict = options.strict_io;
  graph::Graph observed = data::LoadGraph(ref, load_options);
  graph::Graph generated(0);
  util::Rng rng(7);
  if (model == "CPGAN") {
    core::CpganConfig config;
    config.epochs = 400;
    config.subgraph_size = 256;
    config.feature_dim = 32;
    config.latent_dim = 32;
    config.verbose = true;
    config.checkpoint_dir = options.checkpoint_dir;
    config.checkpoint_every = options.checkpoint_every;
    config.metrics_out = options.metrics_out;
    config.metrics_snapshot_every = options.metrics_snapshot_every;
    config.profile = options.profile;
    config.trace_out = options.trace_out;
    config.coreset_size = options.coreset_size;
    config.mem_budget_mb = options.mem_budget_mb;
    config.hierarchical_generation = options.hierarchical;
    core::Cpgan cpgan(config);
    if (options.resume) {
      if (options.checkpoint_dir.empty()) {
        std::fprintf(stderr, "--resume needs --checkpoint-dir\n");
        return 1;
      }
      std::string latest = train::LatestCheckpoint(options.checkpoint_dir);
      if (latest.empty()) {
        std::printf("no checkpoint in %s; training from scratch\n",
                    options.checkpoint_dir.c_str());
      } else if (cpgan.ResumeFrom(latest)) {
        std::printf("resuming from %s\n", latest.c_str());
      } else {
        std::fprintf(stderr, "cannot resume from %s (corrupt?)\n",
                     latest.c_str());
        return 1;
      }
    }
    // Ctrl-C / SIGTERM stop training at the next epoch boundary: a final
    // checkpoint is written (when checkpointing is on) and all sinks are
    // flushed before Fit returns, so an interrupted run is resumable.
    train::InstallStopSignalHandlers();
    core::TrainStats stats = cpgan.Fit(observed);
    if (stats.interrupted) {
      std::printf("interrupted by signal at epoch %zu%s\n",
                  stats.g_loss.size(),
                  options.checkpoint_dir.empty()
                      ? ""
                      : "; final checkpoint written");
    }
    std::printf("trained: %s, peak memory %s",
                eval::FormatMillis(stats.train_seconds * 1000.0).c_str(),
                eval::FormatBytes(stats.peak_bytes).c_str());
    if (stats.coreset_nodes > 0) {
      std::printf(", coreset %d/%d nodes", stats.coreset_nodes,
                  observed.num_nodes());
    }
    if (!options.metrics_out.empty()) {
      std::printf(", %d run-log records", stats.metrics_records);
    }
    std::printf("\n");
    if (stats.budget_exceeded) {
      std::fprintf(stderr,
                   "memory budget exceeded: peak %s > %lld MiB budget\n",
                   eval::FormatBytes(stats.peak_bytes).c_str(),
                   static_cast<long long>(options.mem_budget_mb));
      return 1;
    }
    if (stats.coreset_nodes > 0) {
      // Coreset training: posterior latents only exist for coreset nodes,
      // so a full-size graph is generated from the Gaussian prior
      // (Section III-G, "new graphs of arbitrary sizes").
      generated = cpgan.GenerateWithSize(observed.num_nodes(),
                                         observed.num_edges());
    } else {
      generated = cpgan.Generate();
    }
    if (options.hierarchical) {
      // Flat decode of the same trained model for a community-preservation
      // A/B: hierarchical assembly should trade no community quality for
      // its parallel per-community decode.
      core::GenerateControls flat_controls;
      if (stats.coreset_nodes > 0) {
        flat_controls.num_nodes = observed.num_nodes();
        flat_controls.num_edges = observed.num_edges();
        flat_controls.from_prior = true;
      }
      util::Rng flat_rng(7);
      graph::Graph flat = cpgan.GenerateWith(flat_controls, flat_rng);
      util::Rng mod_rng(3);
      double q_obs = community::Louvain(observed, mod_rng).modularity;
      double q_flat = community::Louvain(flat, mod_rng).modularity;
      double q_hier = community::Louvain(generated, mod_rng).modularity;
      std::printf(
          "flat vs hierarchical: modularity observed=%.3f flat=%.3f "
          "hier=%.3f\n",
          q_obs, q_flat, q_hier);
      if (observed.num_nodes() == flat.num_nodes() &&
          observed.num_nodes() == generated.num_nodes()) {
        util::Rng eval_rng(3);
        eval::CommunityMetrics fm =
            eval::EvaluateCommunityPreservation(observed, flat, eval_rng);
        eval::CommunityMetrics hm =
            eval::EvaluateCommunityPreservation(observed, generated, eval_rng);
        std::printf(
            "flat vs hierarchical: NMI %.3f -> %.3f, ARI %.3f -> %.3f\n",
            fm.nmi, hm.nmi, fm.ari, hm.ari);
      }
    }
  } else {
    auto generator = generators::MakeTraditionalGenerator(model);
    if (generator == nullptr) {
      std::fprintf(stderr, "unknown model '%s' (try E-R, B-A, Chung-Lu, W-S, "
                   "SBM, DCSBM, BTER, Kronecker, MMSB, CPGAN)\n",
                   model.c_str());
      return 1;
    }
    generator->Fit(observed, rng);
    generated = generator->Generate(rng);
  }
  std::printf("generated: n=%d m=%lld\n", generated.num_nodes(),
              static_cast<long long>(generated.num_edges()));
  if (observed.num_nodes() == generated.num_nodes()) {
    util::Rng eval_rng(3);
    eval::CommunityMetrics cm =
        eval::EvaluateCommunityPreservation(observed, generated, eval_rng);
    std::printf("community preservation: NMI=%.3f ARI=%.3f\n", cm.nmi, cm.ari);
  } else {
    std::printf("(node counts differ; community metrics skipped)\n");
  }
  if (!out.empty()) {
    if (!graph::SaveEdgeList(generated, out)) {
      std::fprintf(stderr, "failed to write %s\n", out.c_str());
      return 1;
    }
    std::printf("written to %s\n", out.c_str());
  }
  return 0;
}

int CmdConvert(const std::string& in_path, const std::string& out_path,
               bool strict) {
  graph::LoadOptions load_options;
  load_options.strict = strict;
  graph::ConvertResult result =
      graph::ConvertEdgeListToBinary(in_path, out_path, load_options);
  if (!result.ok()) {
    std::fprintf(stderr, "convert: %s\n", result.error.c_str());
    return 1;
  }
  std::printf("converted %s -> %s: n=%lld m=%lld", in_path.c_str(),
              out_path.c_str(), static_cast<long long>(result.num_nodes),
              static_cast<long long>(result.num_edges));
  if (result.total_skipped() > 0) {
    std::printf(" (skipped: %lld malformed, %lld self-loops, %lld duplicates)",
                static_cast<long long>(result.malformed_lines),
                static_cast<long long>(result.self_loops),
                static_cast<long long>(result.duplicate_edges));
  }
  std::printf("\n");
  return 0;
}

struct ServeOptions {
  std::string model_name = "default";
  std::string checkpoint;     // warm-load; empty = train in-process
  int epochs = 60;            // in-process training budget
  bool strict_io = false;
  serve::ServerOptions server;
};

bool ParseServeFlag(const std::string& arg, ServeOptions* options) {
  auto value_of = [&arg](const std::string& prefix, std::string* out) {
    if (arg.rfind(prefix, 0) != 0) return false;
    *out = arg.substr(prefix.size());
    return true;
  };
  std::string value;
  if (value_of("--model=", &value)) {
    options->model_name = value;
    return !value.empty();
  }
  if (value_of("--checkpoint=", &value)) {
    options->checkpoint = value;
    return !value.empty();
  }
  if (value_of("--epochs=", &value)) {
    options->epochs = std::atoi(value.c_str());
    return options->epochs > 0;
  }
  if (arg == "--strict-io") {
    options->strict_io = true;
    return true;
  }
  if (value_of("--workers=", &value)) {
    options->server.num_workers = std::atoi(value.c_str());
    return options->server.num_workers > 0;
  }
  if (value_of("--queue=", &value)) {
    options->server.queue_capacity = std::atoi(value.c_str());
    return options->server.queue_capacity > 0;
  }
  if (value_of("--deadline-ms=", &value)) {
    options->server.default_deadline_ms = std::atof(value.c_str());
    return options->server.default_deadline_ms >= 0.0;
  }
  if (value_of("--memory-budget-mb=", &value)) {
    options->server.memory_budget_bytes =
        static_cast<int64_t>(std::atoll(value.c_str())) * (1 << 20);
    return options->server.memory_budget_bytes > 0;
  }
  if (value_of("--request-log=", &value)) {
    options->server.request_log = value;
    return !value.empty();
  }
  if (value_of("--metrics-export=", &value)) {
    options->server.exporter.prometheus_path = value;
    return !value.empty();
  }
  if (value_of("--metrics-jsonl=", &value)) {
    options->server.exporter.jsonl_path = value;
    return !value.empty();
  }
  if (value_of("--export-period-ms=", &value)) {
    options->server.exporter.period_ms = std::atof(value.c_str());
    return options->server.exporter.period_ms > 0.0;
  }
  if (value_of("--slo-latency-ms=", &value)) {
    options->server.slo.latency_target_ms = std::atof(value.c_str());
    return options->server.slo.latency_target_ms > 0.0;
  }
  if (value_of("--slo-availability=", &value)) {
    options->server.slo.availability_objective = std::atof(value.c_str());
    return options->server.slo.availability_objective > 0.0 &&
           options->server.slo.availability_objective <= 1.0;
  }
  if (value_of("--slo-window-s=", &value)) {
    options->server.slo.window_s = std::atof(value.c_str());
    return options->server.slo.window_s > 0.0;
  }
  std::fprintf(stderr, "unknown serve flag '%s'\n", arg.c_str());
  return false;
}

int CmdServe(const std::string& ref, const ServeOptions& options) {
  graph::LoadOptions load_options;
  load_options.strict = options.strict_io;
  serve::ModelSpec spec;
  spec.name = options.model_name;
  spec.graph = data::LoadGraph(ref, load_options);
  spec.checkpoint = options.checkpoint;
  spec.config.epochs = options.epochs;
  if (options.checkpoint.empty()) {
    std::fprintf(stderr, "serve: training %s for %d epochs (pass "
                 "--checkpoint=FILE to warm-load instead)...\n",
                 options.model_name.c_str(), options.epochs);
  }
  serve::ModelRegistry registry;
  std::string error;
  if (!registry.AddModel(spec, &error)) {
    std::fprintf(stderr, "serve: cannot build model: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "serve: model '%s' warm (n=%d m=%lld); reading requests from "
               "stdin (GENERATE/RELOAD/STATS/QUIT)\n",
               options.model_name.c_str(), spec.graph.num_nodes(),
               static_cast<long long>(spec.graph.num_edges()));
  serve::Server server(&registry, options.server);
  return server.RunStdio(stdin, stdout);
}

int CmdObsReport(const std::vector<std::string>& args) {
  obs::ObsReportOptions options;
  for (const std::string& arg : args) {
    auto value_of = [&arg](const std::string& prefix, std::string* out) {
      if (arg.rfind(prefix, 0) != 0) return false;
      *out = arg.substr(prefix.size());
      return true;
    };
    std::string value;
    if (value_of("--snapshots=", &value) && !value.empty()) {
      options.snapshot_paths.push_back(value);
    } else if (value_of("--runlog=", &value) && !value.empty()) {
      options.runlog_paths.push_back(value);
    } else if (value_of("--trace=", &value) && !value.empty()) {
      options.trace_paths.push_back(value);
    } else {
      std::fprintf(stderr, "unknown obs-report flag '%s'\n", arg.c_str());
      return 2;
    }
  }
  std::string error;
  std::string report = obs::RenderObsReport(options, &error);
  if (report.empty()) {
    std::fprintf(stderr, "obs-report: %s\n", error.c_str());
    return 1;
  }
  std::fputs(report.c_str(), stdout);
  return 0;
}

int CmdCompare(const std::string& ref_a, const std::string& ref_b) {
  graph::Graph a = data::LoadGraph(ref_a);
  graph::Graph b = data::LoadGraph(ref_b);
  util::Rng rng(5);
  eval::GenerationMetrics gm = eval::ComputeGenerationMetrics(a, b, rng);
  std::printf("Deg. MMD   %.5f\n", gm.deg);
  std::printf("Clus. MMD  %.5f\n", gm.clus);
  std::printf("CPL diff   %.3f\n", gm.cpl);
  std::printf("GINI diff  %.4f\n", gm.gini);
  std::printf("PWE diff   %.4f\n", gm.pwe);
  if (a.num_nodes() == b.num_nodes()) {
    eval::CommunityMetrics cm = eval::EvaluateCommunityPreservation(a, b, rng);
    std::printf("NMI        %.4f\n", cm.nmi);
    std::printf("ARI        %.4f\n", cm.ari);
  } else {
    std::printf("(node counts differ; community metrics skipped)\n");
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  cpgan_cli [--threads=N] [--kernel-backend=NAME] "
               "<command> ...\n"
               "  cpgan_cli datasets\n"
               "  cpgan_cli stats    <graph>\n"
               "  cpgan_cli generate [flags] <model> <graph> [out.txt]\n"
               "      --checkpoint-dir=DIR  --checkpoint-every=N\n"
               "      --resume              --strict-io\n"
               "      --metrics-out=FILE    --profile\n"
               "      --trace=FILE          --metrics-snapshot-every=N\n"
               "      --coreset-size=N      --mem-budget-mb=M\n"
               "      --hierarchical        (community-wise assembly;\n"
               "      prints a flat-vs-hier community comparison)\n"
               "  cpgan_cli convert  [--strict-io] <graph.txt> <out.cpge>\n"
               "      (binary edge lists load via mmap + parallel CSR\n"
               "      construction; every <graph> argument accepts them)\n"
               "  cpgan_cli compare  <graph-a> <graph-b>\n"
               "  cpgan_cli serve    [flags] <graph>\n"
               "      --model=NAME          --checkpoint=FILE\n"
               "      --epochs=N            --strict-io\n"
               "      --workers=N           --queue=N\n"
               "      --deadline-ms=D       --memory-budget-mb=M\n"
               "      --request-log=FILE    (see docs/SERVING.md)\n"
               "      --metrics-export=FILE --metrics-jsonl=FILE\n"
               "      --export-period-ms=D  --slo-latency-ms=D\n"
               "      --slo-availability=F  --slo-window-s=D\n"
               "  cpgan_cli obs-report [--snapshots=FILE] [--runlog=FILE] "
               "[--trace=FILE]\n"
               "      (flags repeatable; see docs/OBSERVABILITY.md)\n"
               "--threads=N sizes the kernel thread pool (default: the\n"
               "CPGAN_NUM_THREADS env var, else all cores); results are\n"
               "identical for any N\n"
               "--kernel-backend=NAME picks the SIMD kernel backend\n"
               "(scalar, avx2; default: the CPGAN_KERNEL_BACKEND env\n"
               "var, else CPUID auto-detection)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Extract the global flags (accepted anywhere) before dispatch.
  const std::string kThreads = "--threads=";
  const std::string kKernelBackend = "--kernel-backend=";
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(kThreads, 0) == 0) {
      int threads = std::atoi(arg.c_str() + kThreads.size());
      if (threads <= 0) {
        std::fprintf(stderr, "--threads needs a positive integer\n");
        return 2;
      }
      util::ThreadPool::SetGlobalThreads(threads);
    } else if (arg.rfind(kKernelBackend, 0) == 0) {
      std::string name = arg.substr(kKernelBackend.size());
      std::string error;
      if (!tensor::kernels::SetBackend(name, &error)) {
        std::fprintf(stderr, "--kernel-backend: %s\n", error.c_str());
        return 2;
      }
    } else {
      args.push_back(arg);
    }
  }
  if (args.empty()) return Usage();
  std::string cmd = args[0];
  if (cmd == "datasets") return CmdDatasets();
  if (cmd == "stats" && args.size() >= 2) return CmdStats(args[1]);
  if (cmd == "generate") {
    GenerateOptions options;
    std::vector<std::string> positional;
    for (size_t i = 1; i < args.size(); ++i) {
      const std::string& arg = args[i];
      if (arg.rfind("--", 0) == 0) {
        if (!ParseGenerateFlag(arg, &options)) return 2;
      } else {
        positional.push_back(arg);
      }
    }
    if (positional.size() < 2 || positional.size() > 3) return Usage();
    return CmdGenerate(positional[0], positional[1],
                       positional.size() == 3 ? positional[2] : "", options);
  }
  if (cmd == "convert") {
    bool strict = false;
    std::vector<std::string> positional;
    for (size_t i = 1; i < args.size(); ++i) {
      const std::string& arg = args[i];
      if (arg == "--strict-io") {
        strict = true;
      } else if (arg.rfind("--", 0) == 0) {
        std::fprintf(stderr, "unknown convert flag '%s'\n", arg.c_str());
        return 2;
      } else {
        positional.push_back(arg);
      }
    }
    if (positional.size() != 2) return Usage();
    return CmdConvert(positional[0], positional[1], strict);
  }
  if (cmd == "compare" && args.size() >= 3) return CmdCompare(args[1], args[2]);
  if (cmd == "obs-report") {
    return CmdObsReport(
        std::vector<std::string>(args.begin() + 1, args.end()));
  }
  if (cmd == "serve") {
    ServeOptions options;
    std::vector<std::string> positional;
    for (size_t i = 1; i < args.size(); ++i) {
      const std::string& arg = args[i];
      if (arg.rfind("--", 0) == 0) {
        if (!ParseServeFlag(arg, &options)) return 2;
      } else {
        positional.push_back(arg);
      }
    }
    if (positional.size() != 1) return Usage();
    return CmdServe(positional[0], options);
  }
  return Usage();
}
