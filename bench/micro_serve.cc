// Serving-runtime latency snapshot: boots the src/serve/ server on a small
// warm model, drives a steady-state burst and a chaos burst through it, and
// writes BENCH_serve.json with p50/p95/p99 latency percentiles derived from
// the obs `serve.latency_ns` histogram plus the serve.* retry/shed/degrade
// counters. bench/BENCH_serve.json holds a reference run; docs/SERVING.md
// documents the runtime.
//
// Percentiles are interpolated inside the log-scale histogram buckets, so
// they are estimates with bucket-width resolution — good enough to track
// order-of-magnitude regressions, not microsecond drift.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/cpgan.h"
#include "data/synthetic.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "serve/chaos.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "util/check.h"
#include "util/fileio.h"
#include "util/memory_tracker.h"
#include "util/rng.h"

namespace {

using namespace cpgan;

graph::Graph BenchServeGraph() {
  data::CommunityGraphParams params;
  params.num_nodes = 100;
  params.num_edges = 320;
  params.num_communities = 5;
  params.intra_fraction = 0.9;
  params.degree_exponent = 2.6;
  util::Rng rng(3);
  return data::MakeCommunityGraph(params, rng);
}

core::CpganConfig BenchServeConfig() {
  core::CpganConfig config;
  config.epochs = 12;
  config.subgraph_size = 64;
  config.hidden_dim = 12;
  config.latent_dim = 6;
  config.feature_dim = 5;
  config.seed = 11;
  return config;
}

/// Submits `per_thread` requests from each of `threads` clients with
/// distinct seeds; returns the number of submissions.
int Burst(serve::Server& server, const serve::Request& base, int threads,
          int per_thread) {
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&server, &base, t, per_thread] {
      for (int i = 0; i < per_thread; ++i) {
        serve::Request request = base;
        request.seed = static_cast<uint64_t>(t) * 1000 + i;
        server.Submit(request);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  return threads * per_thread;
}

/// Percentile estimate (in milliseconds) from the serve.latency_ns log-scale
/// histogram: walks the cumulative bucket counts to the target rank, then
/// interpolates linearly inside the landing bucket.
double HistogramPercentileMs(const obs::Histogram& histogram, double q) {
  const uint64_t count = histogram.Count();
  if (count == 0) return 0.0;
  double rank = q * static_cast<double>(count);
  if (rank < 1.0) rank = 1.0;
  uint64_t cumulative = 0;
  for (int b = 0; b < obs::Histogram::kNumBuckets; ++b) {
    const uint64_t in_bucket = histogram.BucketCount(b);
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      const double lower =
          static_cast<double>(obs::Histogram::BucketLowerBound(b));
      const double upper =
          b + 1 < obs::Histogram::kNumBuckets
              ? static_cast<double>(obs::Histogram::BucketLowerBound(b + 1))
              : lower * 2.0;
      const double within =
          (rank - static_cast<double>(cumulative)) / in_bucket;
      return (lower + (upper - lower) * within) * 1e-6;  // ns -> ms
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(histogram.Sum()) / count * 1e-6;
}

/// One phase's snapshot rendered as a JSON object: request count, latency
/// percentiles from the histogram, and every serve.* counter.
std::string PhaseJson(const std::string& name, int submitted) {
  obs::Histogram* latency =
      obs::MetricsRegistry::Global().FindHistogram("serve.latency_ns");
  std::string json = "  \"" + name + "\": {\n";
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "    \"requests\": %d,\n"
                "    \"latency_ms\": {\"p50\": %.3f, \"p95\": %.3f, "
                "\"p99\": %.3f, \"mean\": %.3f},\n",
                submitted, HistogramPercentileMs(*latency, 0.50),
                HistogramPercentileMs(*latency, 0.95),
                HistogramPercentileMs(*latency, 0.99),
                latency->Count() == 0
                    ? 0.0
                    : static_cast<double>(latency->Sum()) /
                          static_cast<double>(latency->Count()) * 1e-6);
  json += buffer;
  json += "    \"counters\": {";
  bool first = true;
  for (const obs::MetricSample& sample :
       obs::MetricsRegistry::Global().Snapshot()) {
    if (sample.kind != obs::MetricSample::Kind::kCounter) continue;
    if (sample.name.rfind("serve.", 0) != 0) continue;
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\": %" PRIu64,
                  first ? "" : ", ", sample.name.c_str(),
                  static_cast<uint64_t>(sample.value));
    json += buffer;
    first = false;
  }
  json += "}\n  }";
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serve.json";
  const std::string scratch = "/tmp/cpgan_micro_serve";
  util::MakeDirs(scratch);

  serve::ModelRegistry registry;
  serve::ModelSpec spec;
  spec.config = BenchServeConfig();
  spec.graph = BenchServeGraph();
  std::string error;
  CPGAN_CHECK_MSG(registry.AddModel(spec, &error), error.c_str());

  // Phase 1 — steady state: ample queue, no faults, every request ok.
  obs::MetricsRegistry::Global().ResetAll();
  serve::ServerOptions steady_options;
  steady_options.num_workers = 2;
  steady_options.queue_capacity = 16;
  serve::Server steady(&registry, steady_options);
  steady.Start();
  const int steady_requests = Burst(steady, serve::Request{}, 3, 20);
  steady.Stop();
  const std::string steady_json = PhaseJson("steady", steady_requests);

  // Phase 2 — chaos: tight queue + deadline with slow/stall/alloc/log
  // faults, exercising the shed / degrade / deadline / retry paths.
  obs::MetricsRegistry::Global().ResetAll();
  serve::ServerOptions chaos_options;
  chaos_options.num_workers = 2;
  chaos_options.queue_capacity = 3;
  chaos_options.default_deadline_ms = 40.0;
  chaos_options.io_backoff.initial_delay_ms = 0.1;
  chaos_options.io_backoff.max_delay_ms = 1.0;
  chaos_options.request_log = scratch + "/requests.jsonl";
  std::remove(chaos_options.request_log.c_str());
  serve::Server chaotic(&registry, chaos_options);
  serve::ChaosPlan plan;
  plan.slow_every = 3;
  plan.slow_ms = 25.0;
  plan.stall_every = 4;
  plan.stall_ms = 20.0;
  plan.alloc_every = 5;
  plan.alloc_bytes = int64_t{1} << 40;
  plan.log_failures = 3;
  chaotic.SetChaos(plan);
  util::MemoryTracker::Global().SetBudgetBytes(
      util::MemoryTracker::Global().live_bytes() * 10 + (int64_t{1} << 20));
  chaotic.Start();
  const int chaos_requests = Burst(chaotic, serve::Request{}, 6, 4);
  chaotic.Stop();
  util::MemoryTracker::Global().SetBudgetBytes(0);
  const std::string chaos_json = PhaseJson("chaos", chaos_requests);

  char date[64] = "unknown";
  std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%S%z",
                std::localtime(&now));
  char context[256];
  std::snprintf(context, sizeof(context),
                "  \"context\": {\"date\": \"%s\", \"model_nodes\": %d, "
                "\"model_edges\": %" PRId64 ", \"epochs\": %d},\n",
                date, spec.graph.num_nodes(), spec.graph.num_edges(),
                spec.config.epochs);

  std::string json = "{\n";
  json += context;
  json += steady_json + ",\n";
  json += chaos_json + "\n}\n";
  CPGAN_CHECK_MSG(
      util::AtomicWriteFile(out_path,
                            [&json](std::FILE* file) {
                              return std::fwrite(json.data(), 1, json.size(),
                                                 file) == json.size();
                            }),
      "failed to write BENCH_serve.json");
  std::printf("%s", json.c_str());
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
