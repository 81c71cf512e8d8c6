// Out-of-core ingest snapshot (docs/INTERNALS.md, "Streaming ingest"):
// streams a synthetic ring+chord graph (default 1M nodes / 10M edges) to
// disk without materializing it, converts it to the .cpge binary format,
// then times the text loader against the mmap + parallel-CSR binary loader
// on the same bytes. The two CSRs are compared edge-for-edge — the speed
// claim is only meaningful if the graphs are bitwise identical. Finally
// arms the MemoryTracker budget and trains CPGAN on a sensitivity coreset
// of the 10M-edge graph, proving the whole pipeline (ingest + training)
// fits the --mem-budget-mb cap.
//
// Writes bench/BENCH_ingest.json (or argv[1]) and prints the
// INGEST_SPEEDUP= / INGEST_PEAK_WITHIN_BUDGET= lines run_benches.sh
// asserts on (speedup >= 3x, within-budget = 1).
//
// The ring has 1000000 nodes and 9 chords per node (10M edges in all); the
// RAM budget for ingest and training is 512 MiB, and the coreset of 2048
// nodes trains for 6 epochs.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/cpgan.h"
#include "data/edge_stream.h"
#include "graph/binary_io.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "obs/json.h"
#include "util/check.h"
#include "util/fileio.h"
#include "util/memory_tracker.h"
#include "util/timer.h"

using namespace cpgan;

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "bench/BENCH_ingest.json";

  data::RingChordSpec spec;
  spec.num_nodes = 1000000;
  spec.chords = 9;
  spec.seed = 42;
  const int64_t budget_mb = 512;
  const int epochs = 6;
  const int coreset_size = 2048;
  const int64_t num_edges = data::RingChordEdgeCount(spec);

  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "cpgan_micro_ingest";
  fs::create_directories(dir);
  const std::string text_path = (dir / "ring_chord.txt").string();
  const std::string binary_path = (dir / "ring_chord.cpge").string();

  std::fprintf(stderr, "writing %lld-edge text edge list...\n",
               static_cast<long long>(num_edges));
  util::Timer write_timer;
  CPGAN_CHECK(data::WriteRingChordText(spec, text_path));
  const double write_text_s = write_timer.Seconds();

  std::fprintf(stderr, "converting to .cpge...\n");
  util::Timer convert_timer;
  graph::ConvertResult converted =
      graph::ConvertEdgeListToBinary(text_path, binary_path);
  const double convert_s = convert_timer.Seconds();
  CPGAN_CHECK_MSG(converted.ok(), converted.error.c_str());
  CPGAN_CHECK(converted.num_nodes == spec.num_nodes);
  CPGAN_CHECK(converted.num_edges == num_edges);
  CPGAN_CHECK(converted.total_skipped() == 0);

  // Text-loader baseline. The edge list (not the Graph) is kept for the
  // differential check; the graph itself is dropped before training so the
  // tracked peak reflects the binary pipeline only.
  std::fprintf(stderr, "text load...\n");
  std::vector<graph::Edge> text_edges;
  int text_nodes = 0;
  util::Timer text_timer;
  double text_load_s = 0.0;
  {
    graph::LoadResult loaded = graph::LoadEdgeListDetailed(text_path);
    text_load_s = text_timer.Seconds();
    CPGAN_CHECK_MSG(loaded.ok(), loaded.error.c_str());
    text_nodes = loaded.graph->num_nodes();
    text_edges = loaded.graph->Edges();
  }

  // Binary load with the RAM budget armed: the loader's projected-CSR gate
  // and the training peak both run under the same cap.
  util::MemoryTracker& tracker = util::MemoryTracker::Global();
  tracker.SetBudgetBytes(budget_mb << 20);
  std::fprintf(stderr, "mmap load (budget %lld MiB)...\n",
               static_cast<long long>(budget_mb));
  util::Timer mmap_timer;
  graph::LoadResult binary_loaded =
      graph::LoadBinaryEdgeListDetailed(binary_path);
  const double mmap_load_s = mmap_timer.Seconds();
  CPGAN_CHECK_MSG(binary_loaded.ok(), binary_loaded.error.c_str());
  const graph::Graph& g = *binary_loaded.graph;

  const bool csr_equal =
      g.num_nodes() == text_nodes && g.Edges() == text_edges;
  CPGAN_CHECK_MSG(csr_equal, "mmap CSR differs from the text loader's");
  text_edges.clear();
  text_edges.shrink_to_fit();

  const double speedup = mmap_load_s > 0.0 ? text_load_s / mmap_load_s : 0.0;
  const double text_eps =
      text_load_s > 0.0 ? static_cast<double>(num_edges) / text_load_s : 0.0;
  const double mmap_eps =
      mmap_load_s > 0.0 ? static_cast<double>(num_edges) / mmap_load_s : 0.0;

  std::fprintf(stderr, "coreset training (%d nodes, %d epochs)...\n",
               coreset_size, epochs);
  core::CpganConfig config;
  config.epochs = epochs;
  config.subgraph_size = 128;
  config.coreset_size = coreset_size;
  config.mem_budget_mb = budget_mb;
  config.seed = 7;
  core::Cpgan cpgan(config);
  util::Timer train_timer;
  core::TrainStats stats = cpgan.Fit(g);
  const double train_s = train_timer.Seconds();
  const bool within_budget = !stats.budget_exceeded;

  obs::JsonValue block = obs::JsonValue::Object();
  block.Add("num_nodes", obs::JsonValue::Int(spec.num_nodes));
  block.Add("num_edges", obs::JsonValue::Int(num_edges));
  block.Add("write_text_s", obs::JsonValue::Number(write_text_s));
  block.Add("convert_s", obs::JsonValue::Number(convert_s));
  block.Add("text_load_s", obs::JsonValue::Number(text_load_s));
  block.Add("mmap_load_s", obs::JsonValue::Number(mmap_load_s));
  block.Add("text_edges_per_sec", obs::JsonValue::Number(text_eps));
  block.Add("mmap_edges_per_sec", obs::JsonValue::Number(mmap_eps));
  block.Add("speedup", obs::JsonValue::Number(speedup));
  block.Add("csr_equal", obs::JsonValue::Bool(csr_equal));
  block.Add("budget_mb", obs::JsonValue::Int(budget_mb));
  block.Add("coreset_size", obs::JsonValue::Int(coreset_size));
  block.Add("coreset_nodes", obs::JsonValue::Int(stats.coreset_nodes));
  block.Add("train_epochs", obs::JsonValue::Int(epochs));
  block.Add("train_s", obs::JsonValue::Number(train_s));
  block.Add("train_peak_bytes", obs::JsonValue::Int(stats.peak_bytes));
  block.Add("within_budget", obs::JsonValue::Bool(within_budget));
  obs::JsonValue root = obs::JsonValue::Object();
  root.Add("ingest", block);
  const std::string serialized = root.Serialize() + "\n";
  CPGAN_CHECK(util::AtomicWriteFile(out_path, [&serialized](std::FILE* f) {
    return std::fputs(serialized.c_str(), f) >= 0;
  }));

  std::printf("ingest: n=%lld m=%lld text %.2fs (%.2fM eps), mmap %.3fs "
              "(%.2fM eps), convert %.2fs\n",
              static_cast<long long>(spec.num_nodes),
              static_cast<long long>(num_edges), text_load_s, text_eps / 1e6,
              mmap_load_s, mmap_eps / 1e6, convert_s);
  std::printf("coreset train: %d/%lld nodes, %.2fs, peak %lld bytes "
              "(budget %lld MiB)\n",
              stats.coreset_nodes, static_cast<long long>(spec.num_nodes),
              train_s, static_cast<long long>(stats.peak_bytes),
              static_cast<long long>(budget_mb));
  std::printf("INGEST_SPEEDUP=%.2f\n", speedup);
  std::printf("INGEST_PEAK_WITHIN_BUDGET=%d\n", within_budget ? 1 : 0);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());

  tracker.SetBudgetBytes(0);
  std::error_code ec;
  fs::remove_all(dir, ec);
  return 0;
}
