#ifndef CPGAN_SERVE_SERVER_H_
#define CPGAN_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporter.h"
#include "obs/slo.h"
#include "serve/chaos.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "util/backoff.h"
#include "util/deadline.h"

namespace cpgan::serve {

/// Tuning knobs of the generation server (docs/SERVING.md).
struct ServerOptions {
  /// Worker threads draining the request queue. Each worker decodes its
  /// request independently of the others; a worker whose decode finds the
  /// kernel thread pool busy with another request's region runs that region
  /// on its own thread (util/thread_pool.h).
  int num_workers = 2;

  /// Bounded request queue: submissions beyond this depth are shed
  /// immediately (status=shed detail=queue_full) instead of building an
  /// unbounded backlog.
  int queue_capacity = 8;

  /// Deadline applied to requests that do not carry deadline_ms. 0 =
  /// unlimited.
  double default_deadline_ms = 0.0;

  /// Watchdog scan period. The watchdog cancels expired jobs — queued or
  /// in-flight — via their cooperative abort flag, which the decode polls at
  /// phase boundaries.
  double watchdog_period_ms = 2.0;

  /// Degradation ladder, driven by max(queue fraction, memory pressure):
  /// at `soft_pressure` the assembly batch shrinks (response still ok); at
  /// `heavy_pressure` generation runs reduced-fidelity (smaller batch, fewer
  /// assembly passes) and the response is flagged degraded.
  double soft_pressure = 0.5;
  double heavy_pressure = 0.85;
  int soft_subgraph_size = 128;
  int degraded_subgraph_size = 64;
  int degraded_max_passes = 2;

  /// Advisory tensor-memory budget installed into util::MemoryTracker at
  /// Start (feeds the pressure ladder). 0 keeps the tracker's current
  /// budget.
  int64_t memory_budget_bytes = 0;

  /// Retry schedule for transient I/O (output writes, request-log appends)
  /// and model reloads.
  util::BackoffPolicy io_backoff;

  /// JSONL request log (one record per response). Empty disables.
  std::string request_log;

  /// Live observability plane (docs/OBSERVABILITY.md): periodic exporter
  /// sinks (Prometheus text file + JSONL snapshots; both paths empty
  /// disables the background thread) and the SLO objectives evaluated over
  /// a sliding window of completed requests. The server owns the exporter
  /// lifecycle (Start spawns it, Stop flushes and joins it) and publishes
  /// SLO health as `serve.slo.*` gauges on every exporter tick, so each
  /// snapshot carries burn rates consistent with its raw histograms.
  obs::ExporterOptions exporter;
  obs::SloConfig slo;
};

/// Aggregate counters, readable at any time (also exported through the
/// obs metrics registry under serve.*).
struct ServerStats {
  uint64_t received = 0;           // GENERATE requests submitted
  uint64_t completed = 0;          // ok + degraded
  uint64_t ok = 0;
  uint64_t degraded = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t errors = 0;
  uint64_t retries = 0;            // transient-I/O retries across requests
  uint64_t watchdog_cancels = 0;   // jobs cancelled by the watchdog
};

/// Long-lived generation server over a warm ModelRegistry.
///
/// Structure: Submit() enqueues into a bounded queue (shedding when full)
/// and blocks until the response is published; worker threads drain the
/// queue and decode concurrently; a watchdog thread cancels expired jobs at
/// the next phase boundary. The serving contract — every submitted
/// request terminates with a response, and every non-ok response is
/// explicitly flagged — holds under every ChaosPlan fault class (enforced
/// by tests/serve/chaos_test.cc under ASan and TSan).
class Server {
 public:
  Server(ModelRegistry* registry, const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Installs a fault-injection plan. Call before Start.
  void SetChaos(const ChaosPlan& plan);

  /// Spawns workers and the watchdog. Idempotent until Stop.
  void Start();

  /// Drains the queue (pending jobs still get responses), joins all
  /// threads, and closes the request log. Submissions during/after Stop are
  /// shed.
  void Stop();

  /// Blocking request: enqueues and waits for the response. Thread-safe;
  /// this is the embedded-client API the chaos suite drives from N threads.
  Response Submit(const Request& request);

  /// Parses one protocol line and executes it (GENERATE blocks like Submit;
  /// RELOAD/STATS/QUIT run inline). Returns the response line without a
  /// trailing newline — empty for blank/comment input. Sets *quit on QUIT.
  std::string HandleLine(const std::string& line, bool* quit);

  /// Line loop over stdio-style streams: one request per line in, one
  /// response per line out (flushed), until QUIT or EOF. Calls Start/Stop
  /// around the loop. Returns 0.
  int RunStdio(std::FILE* in, std::FILE* out);

  ServerStats Stats() const;
  int queue_depth() const;
  const ServerOptions& options() const { return options_; }

  /// Current SLO window (percentiles, availability, burn rates). The same
  /// numbers the STATS verb reports and the exporter publishes as gauges.
  obs::SloSnapshot SloStatus() const { return slo_.Snapshot(); }

  /// The live exporter, or nullptr when not started / both sinks disabled.
  obs::MetricsExporter* exporter() { return exporter_.get(); }

 private:
  struct Job;

  void WorkerLoop();
  void WatchdogLoop();

  /// Executes one job end to end (chaos, pressure, decode, output, log) and
  /// returns its response with latency filled in.
  Response Process(Job& job);

  /// Publishes a finished job's response and updates counters.
  void Finish(const std::shared_ptr<Job>& job, Response response);

  /// Updates stats/metrics for a terminal response.
  void Record(const Response& response);

  util::Deadline ResolveDeadline(const Request& request) const;
  bool AppendRequestLog(const Response& response, int* log_retries);
  std::string StatsLine(uint64_t id);

  ModelRegistry* registry_;
  ServerOptions options_;
  ChaosInjector chaos_;
  obs::SloTracker slo_;
  std::unique_ptr<obs::MetricsExporter> exporter_;

  std::atomic<uint64_t> next_id_{1};

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::condition_variable watchdog_cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  std::vector<std::shared_ptr<Job>> active_;
  bool started_ = false;
  bool stopping_ = false;

  std::vector<std::thread> workers_;
  std::thread watchdog_;

  std::mutex log_mutex_;
  std::FILE* log_file_ = nullptr;

  // Stats (relaxed atomics; ServerStats snapshots them).
  std::atomic<uint64_t> received_{0};
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> watchdog_cancels_{0};
};

}  // namespace cpgan::serve

#endif  // CPGAN_SERVE_SERVER_H_
