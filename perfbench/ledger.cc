#include "ledger.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"

namespace cpgan::perfbench {
namespace {

/// Leaf name of the parent of a ';'-joined span path ("" for a root).
std::string_view ParentLeaf(std::string_view path) {
  size_t last = path.rfind(';');
  if (last == std::string_view::npos) return {};
  std::string_view parent = path.substr(0, last);
  size_t prev = parent.rfind(';');
  return prev == std::string_view::npos ? parent : parent.substr(prev + 1);
}

bool PathPassesThrough(std::string_view path, std::string_view name) {
  size_t start = 0;
  while (start <= path.size()) {
    size_t end = path.find(';', start);
    if (end == std::string_view::npos) end = path.size();
    if (path.substr(start, end - start) == name) return true;
    start = end + 1;
  }
  return false;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

}  // namespace

SpanLedger SpanLedger::Collect() {
  SpanLedger ledger;
  ledger.spans_ = obs::CollectSpanStats();
  return ledger;
}

template <typename Fn>
void SpanLedger::ForOutermost(std::string_view prefix, std::string_view under,
                              Fn&& fn) const {
  for (const obs::SpanStats& span : spans_) {
    if (!StartsWith(span.name, prefix)) continue;
    if (StartsWith(ParentLeaf(span.path), prefix)) continue;
    if (!under.empty() && !PathPassesThrough(span.path, under)) continue;
    fn(span);
  }
}

double SpanLedger::Ms(std::string_view prefix, std::string_view under) const {
  uint64_t ns = 0;
  ForOutermost(prefix, under,
               [&ns](const obs::SpanStats& span) { ns += span.inclusive_ns; });
  return static_cast<double>(ns) * 1e-6;
}

uint64_t SpanLedger::Calls(std::string_view prefix,
                           std::string_view under) const {
  uint64_t calls = 0;
  ForOutermost(prefix, under,
               [&calls](const obs::SpanStats& span) { calls += span.calls; });
  return calls;
}

double SpanLedger::SelfMs(std::string_view name) const {
  uint64_t ns = 0;
  for (const obs::SpanStats& span : spans_) {
    if (span.name == name) ns += span.exclusive_ns;
  }
  return static_cast<double>(ns) * 1e-6;
}

void SpanLedger::Print(std::FILE* out, const char* title) const {
  std::fprintf(out, "-- spans: %s (self = inclusive - same-thread children; "
               "a parent's self time is its unattributed time)\n", title);
  std::fprintf(out, "%-58s %9s %12s %12s\n", "span", "calls", "incl_ms",
               "self_ms");
  uint64_t worker_root_ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const obs::SpanStats& span = spans_[i];
    bool parent = i + 1 < spans_.size() && spans_[i + 1].depth > span.depth;
    std::string label(static_cast<size_t>(span.depth) * 2, ' ');
    label += span.name;
    std::fprintf(out, "%-58s %9llu %12.3f %12.3f%s\n", label.c_str(),
                 static_cast<unsigned long long>(span.calls),
                 span.inclusive_ns * 1e-6, span.exclusive_ns * 1e-6,
                 parent ? "  <- unattributed" : "");
    if (span.depth == 0 && !StartsWith(span.name, "bench/")) {
      worker_root_ns += span.inclusive_ns;
    }
  }
  std::fprintf(out, "roots on pool or server worker threads: %.3f ms busy "
               "(summed across threads, not part of any caller's wall time)\n",
               worker_root_ns * 1e-6);
}

RegistrySnapshot RegistrySnapshot::Take() {
  RegistrySnapshot snap;
  for (const obs::MetricSample& sample :
       obs::MetricsRegistry::Global().SnapshotAll()) {
    if (sample.kind == obs::MetricSample::Kind::kCounter) {
      snap.counters[sample.name] = static_cast<uint64_t>(sample.value);
    } else if (sample.kind == obs::MetricSample::Kind::kStopwatch) {
      // SnapshotAll reports stopwatch totals in ms; keep nanoseconds.
      snap.stopwatches[sample.name] = {
          static_cast<uint64_t>(sample.value * 1e6), sample.count};
    }
  }
  return snap;
}

uint64_t RegistrySnapshot::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

uint64_t RegistrySnapshot::StopwatchNanos(const std::string& name) const {
  auto it = stopwatches.find(name);
  return it == stopwatches.end() ? 0 : it->second.first;
}

uint64_t RegistrySnapshot::StopwatchCount(const std::string& name) const {
  auto it = stopwatches.find(name);
  return it == stopwatches.end() ? 0 : it->second.second;
}

double GaugeValue(const std::string& name) {
  return obs::MetricsRegistry::Global().FindGauge(name)->Value();
}

bool SameCsr(const graph::Graph& a, const graph::Graph& b, std::string* why) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    *why = "shape " + std::to_string(a.num_nodes()) + "/" +
           std::to_string(a.num_edges()) + " vs " +
           std::to_string(b.num_nodes()) + "/" + std::to_string(b.num_edges());
    return false;
  }
  for (int v = 0; v < a.num_nodes(); ++v) {
    auto ra = a.neighbors(v);
    auto rb = b.neighbors(v);
    if (!std::equal(ra.begin(), ra.end(), rb.begin(), rb.end())) {
      *why = "row " + std::to_string(v) + " differs";
      return false;
    }
  }
  return true;
}

bool ReplayFileMatches(const std::string& path, const graph::Graph& expected,
                       std::string* why) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *why = "cannot open " + path;
    return false;
  }
  std::vector<graph::Edge> edges;
  int u = 0;
  int v = 0;
  int fields = 0;
  while ((fields = std::fscanf(f, "%d %d", &u, &v)) == 2) {
    edges.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::fclose(f);
  if (fields != EOF) {
    *why = "malformed line after " + std::to_string(edges.size()) + " edges";
    return false;
  }
  std::sort(edges.begin(), edges.end());
  std::vector<graph::Edge> want = expected.Edges();
  for (auto& e : want) e = {std::min(e.first, e.second), std::max(e.first, e.second)};
  std::sort(want.begin(), want.end());
  if (edges != want) {
    *why = std::to_string(edges.size()) + " file edges vs " +
           std::to_string(want.size()) + " replayed, sets differ";
    return false;
  }
  return true;
}

}  // namespace cpgan::perfbench
