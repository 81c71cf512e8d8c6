#ifndef CPGAN_PERFBENCH_LEDGER_H_
#define CPGAN_PERFBENCH_LEDGER_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "obs/trace.h"

namespace cpgan::perfbench {

/// The merged span trees of one traced window (obs::CollectSpanStats).
///
/// Spans closed on thread-pool workers are roots of their own thread's
/// tree, so a family total sums busy time across threads; it is reported
/// beside the caller's wall time, never subtracted from it.
class SpanLedger {
 public:
  static SpanLedger Collect();

  /// Inclusive milliseconds / calls of the outermost spans whose leaf name
  /// starts with `prefix` (a span nested in another span of the same family
  /// is not counted twice). With `under` set, only spans whose path passes
  /// through a span named `under` count.
  double Ms(std::string_view prefix, std::string_view under = {}) const;
  uint64_t Calls(std::string_view prefix, std::string_view under = {}) const;

  /// Self milliseconds of every span named `name`: inclusive time minus its
  /// same-thread children.
  double SelfMs(std::string_view name) const;

  /// One row per span path: calls, inclusive and self milliseconds (self =
  /// inclusive minus same-thread children, which for a parent is its
  /// unattributed time), then the summed busy time of roots the benchmark
  /// did not open (spans closed on pool or server worker threads).
  void Print(std::FILE* out, const char* title) const;

 private:
  template <typename Fn>
  void ForOutermost(std::string_view prefix, std::string_view under,
                    Fn&& fn) const;

  std::vector<obs::SpanStats> spans_;
};

/// Counter and stopwatch values of the global metrics registry at one
/// instant; differences of two snapshots give per-phase work counts.
struct RegistrySnapshot {
  static RegistrySnapshot Take();

  uint64_t Counter(const std::string& name) const;
  uint64_t StopwatchNanos(const std::string& name) const;
  uint64_t StopwatchCount(const std::string& name) const;

  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::pair<uint64_t, uint64_t>> stopwatches;
};

/// Current value of a registry gauge (0 when never set).
double GaugeValue(const std::string& name);

/// True when `a` and `b` have the same node count and identical CSR rows
/// (edge for edge); otherwise `why` names the first difference.
bool SameCsr(const graph::Graph& a, const graph::Graph& b, std::string* why);

/// True when the "u v" lines of a server output file are exactly the edge
/// set of `expected` (each undirected edge once, any order or orientation).
bool ReplayFileMatches(const std::string& path, const graph::Graph& expected,
                       std::string* why);

}  // namespace cpgan::perfbench

#endif  // CPGAN_PERFBENCH_LEDGER_H_
