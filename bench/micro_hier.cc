// Hierarchical-assembly snapshot (docs/INTERNALS.md, "Hierarchical
// assembly"): trains one CPGAN on a multi-community fixture, then times
// flat generation (one AssembleGraph over the whole graph, decode blocks up
// to 1024 nodes) against hierarchical generation (per-community decodes +
// cross-community stitching) from the same posterior latents, at 1/2/8
// kernel threads. On a single core the hierarchical win is algorithmic —
// decode cost is quadratic in the block size, and communities are far
// smaller than the flat chunks — so the speedup gate holds without
// hardware parallelism.
//
// The hierarchical output is also checked bitwise across the three thread
// counts (a speedup bought with a thread-count-dependent graph cannot
// pass), and both outputs are scored for community preservation so the
// fast path cannot silently trade community structure away.
//
// Writes bench/BENCH_hier.json (or argv[1]) and prints the
// HIER_SPEEDUP_T8= / HIER_MODULARITY_DELTA= / HIER_DETERMINISTIC= lines
// run_benches.sh asserts on (speedup >= 2x at 8 threads, modularity delta
// >= -0.05, deterministic = 1).
//
// The fixture has 3000 nodes, 10000 edges and 12 planted communities; the
// model trains for 12 epochs, and each timing is the best of 3 runs.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "community/louvain.h"
#include "core/config.h"
#include "core/cpgan.h"
#include "data/synthetic.h"
#include "eval/community_eval.h"
#include "graph/graph.h"
#include "obs/json.h"
#include "util/check.h"
#include "util/fileio.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace cpgan;

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "bench/BENCH_hier.json";

  data::CommunityGraphParams params;
  params.num_nodes = 3000;
  params.num_edges = 10000;
  params.num_communities = 12;
  params.intra_fraction = 0.9;
  const int epochs = 12;
  const int reps = 3;
  util::Rng graph_rng(42);
  graph::Graph observed = data::MakeCommunityGraph(params, graph_rng);

  std::fprintf(stderr, "training on n=%d m=%lld (%d communities)...\n",
               observed.num_nodes(),
               static_cast<long long>(observed.num_edges()),
               params.num_communities);
  core::CpganConfig config;
  config.epochs = epochs;
  config.subgraph_size = 128;
  config.hidden_dim = 24;
  config.latent_dim = 12;
  config.feature_dim = 8;
  config.seed = 7;
  core::Cpgan model(config);
  util::Timer train_timer;
  model.Fit(observed);
  const double train_s = train_timer.Seconds();

  const std::vector<tensor::Matrix> latents = model.PosteriorMeanLatents();
  std::vector<int> labels = model.LearnedCommunityLabels();
  int learned_communities = 0;
  for (int label : labels) {
    learned_communities = std::max(learned_communities, label + 1);
  }
  if (learned_communities < 2) {
    // A collapsed pooling (everything in one cluster) degenerates the
    // skeleton to flat assembly; fall back to the Louvain partition so the
    // bench always exercises the multi-community path it is gating.
    std::fprintf(stderr, "learned labels collapsed; using Louvain labels\n");
    util::Rng louvain_rng(3);
    labels = community::Louvain(observed, louvain_rng)
                 .FinalPartition()
                 .labels();
    for (int label : labels) {
      learned_communities = std::max(learned_communities, label + 1);
    }
  }

  const int n = observed.num_nodes();
  const int64_t m = observed.num_edges();
  const std::vector<int> thread_counts = {1, 2, 8};
  std::vector<double> flat_s(thread_counts.size(), 0.0);
  std::vector<double> hier_s(thread_counts.size(), 0.0);
  graph::Graph flat_out(0);
  graph::Graph hier_out(0);
  bool deterministic = true;
  std::vector<graph::Edge> hier_reference;

  for (size_t t = 0; t < thread_counts.size(); ++t) {
    util::ThreadPool::SetGlobalThreads(thread_counts[t]);
    double best_flat = 0.0;
    double best_hier = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      core::GenerateControls controls;
      util::Rng flat_rng(11);
      util::Timer flat_timer;
      graph::Graph flat =
          model.GenerateFromLatents(latents, n, m, controls, flat_rng);
      const double flat_elapsed = flat_timer.Seconds();

      util::Rng hier_rng(11);
      util::Timer hier_timer;
      graph::Graph hier = model.GenerateHierarchicalFromLatents(
          latents, labels, n, m, controls, hier_rng);
      const double hier_elapsed = hier_timer.Seconds();

      if (rep == 0) {
        if (hier_reference.empty()) {
          hier_reference = hier.Edges();
        } else if (hier.Edges() != hier_reference) {
          deterministic = false;
        }
      }
      if (rep == 0 || flat_elapsed < best_flat) best_flat = flat_elapsed;
      if (rep == 0 || hier_elapsed < best_hier) best_hier = hier_elapsed;
      flat_out = std::move(flat);
      hier_out = std::move(hier);
    }
    flat_s[t] = best_flat;
    hier_s[t] = best_hier;
    std::fprintf(stderr, "threads=%d flat %.3fs hier %.3fs (%.2fx)\n",
                 thread_counts[t], best_flat, best_hier,
                 best_hier > 0.0 ? best_flat / best_hier : 0.0);
  }
  util::ThreadPool::SetGlobalThreads(1);

  // Community preservation: the fast path must not trade community
  // structure away. Modularity is graph-intrinsic so it also covers the
  // size-mismatch case; NMI/ARI require the identity correspondence.
  util::Rng q_rng(3);
  const double q_observed = community::Louvain(observed, q_rng).modularity;
  const double q_flat = community::Louvain(flat_out, q_rng).modularity;
  const double q_hier = community::Louvain(hier_out, q_rng).modularity;
  util::Rng eval_rng(5);
  eval::CommunityMetrics flat_metrics =
      eval::EvaluateCommunityPreservation(observed, flat_out, eval_rng);
  eval::CommunityMetrics hier_metrics =
      eval::EvaluateCommunityPreservation(observed, hier_out, eval_rng);

  const double speedup_t8 =
      hier_s.back() > 0.0 ? flat_s.back() / hier_s.back() : 0.0;
  const double q_delta = q_hier - q_flat;

  obs::JsonValue block = obs::JsonValue::Object();
  block.Add("num_nodes", obs::JsonValue::Int(n));
  block.Add("num_edges", obs::JsonValue::Int(m));
  block.Add("communities", obs::JsonValue::Int(learned_communities));
  block.Add("train_epochs", obs::JsonValue::Int(epochs));
  block.Add("train_s", obs::JsonValue::Number(train_s));
  obs::JsonValue flat_times = obs::JsonValue::Object();
  obs::JsonValue hier_times = obs::JsonValue::Object();
  for (size_t t = 0; t < thread_counts.size(); ++t) {
    const std::string key = "t" + std::to_string(thread_counts[t]);
    flat_times.Add(key, obs::JsonValue::Number(flat_s[t]));
    hier_times.Add(key, obs::JsonValue::Number(hier_s[t]));
  }
  block.Add("flat_s", flat_times);
  block.Add("hier_s", hier_times);
  block.Add("speedup_t8", obs::JsonValue::Number(speedup_t8));
  block.Add("deterministic", obs::JsonValue::Bool(deterministic));
  block.Add("flat_edges", obs::JsonValue::Int(flat_out.num_edges()));
  block.Add("hier_edges", obs::JsonValue::Int(hier_out.num_edges()));
  block.Add("modularity_observed", obs::JsonValue::Number(q_observed));
  block.Add("modularity_flat", obs::JsonValue::Number(q_flat));
  block.Add("modularity_hier", obs::JsonValue::Number(q_hier));
  block.Add("modularity_delta", obs::JsonValue::Number(q_delta));
  block.Add("nmi_flat", obs::JsonValue::Number(flat_metrics.nmi));
  block.Add("nmi_hier", obs::JsonValue::Number(hier_metrics.nmi));
  block.Add("ari_flat", obs::JsonValue::Number(flat_metrics.ari));
  block.Add("ari_hier", obs::JsonValue::Number(hier_metrics.ari));
  obs::JsonValue root = obs::JsonValue::Object();
  root.Add("hier", block);
  const std::string serialized = root.Serialize() + "\n";
  CPGAN_CHECK(util::AtomicWriteFile(out_path, [&serialized](std::FILE* f) {
    return std::fputs(serialized.c_str(), f) >= 0;
  }));

  std::printf("hier: n=%d m=%lld communities=%d, flat %.3fs hier %.3fs at "
              "8 threads\n",
              n, static_cast<long long>(m), learned_communities,
              flat_s.back(), hier_s.back());
  std::printf("community: modularity observed=%.3f flat=%.3f hier=%.3f, "
              "NMI flat=%.3f hier=%.3f\n",
              q_observed, q_flat, q_hier, flat_metrics.nmi,
              hier_metrics.nmi);
  std::printf("HIER_SPEEDUP_T8=%.2f\n", speedup_t8);
  std::printf("HIER_MODULARITY_DELTA=%.3f\n", q_delta);
  std::printf("HIER_DETERMINISTIC=%d\n", deterministic ? 1 : 0);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
