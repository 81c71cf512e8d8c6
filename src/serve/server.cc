#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "util/fileio.h"
#include "util/logging.h"
#include "util/memory_tracker.h"
#include "util/rng.h"

namespace cpgan::serve {
namespace {

using Clock = std::chrono::steady_clock;

/// Degradation ladder, driven by max(queue fraction, memory pressure): from
/// kSoftPressure the assembly batch (nodes per decode chunk) shrinks and the
/// response stays ok; from kHeavyPressure the batch shrinks further, the
/// assembly passes are capped and the response is flagged degraded.
constexpr double kSoftPressure = 0.5;
constexpr double kHeavyPressure = 0.85;
constexpr int kSoftSubgraphSize = 128;
constexpr int kDegradedSubgraphSize = 64;
constexpr int kDegradedMaxPasses = 2;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void SleepMs(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

bool WriteEdgeListAtomic(const graph::Graph& g, const std::string& path) {
  return util::AtomicWriteFile(path, [&g](std::FILE* f) {
    for (const auto& [u, v] : g.Edges()) {
      if (std::fprintf(f, "%d %d\n", u, v) < 0) return false;
    }
    return true;
  });
}

}  // namespace

struct Server::Job {
  Request request;
  uint64_t id = 0;
  Clock::time_point start{};
  util::Deadline deadline;

  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  Response response;
};

Server::Server(ModelRegistry* registry, const ServerOptions& options)
    : registry_(registry), options_(options), slo_(options.slo) {
  options_.num_workers = std::max(1, options_.num_workers);
  options_.queue_capacity = std::max(1, options_.queue_capacity);
}

Server::~Server() { Stop(); }

void Server::SetChaos(const ChaosPlan& plan) { chaos_.Reset(plan); }

void Server::Start() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (started_) return;
    started_ = true;
    stopping_ = false;
  }
  if (options_.memory_budget_bytes > 0) {
    util::MemoryTracker::Global().SetBudgetBytes(options_.memory_budget_bytes);
  }
  if (!options_.request_log.empty()) {
    log_file_ = std::fopen(options_.request_log.c_str(), "a");
    if (log_file_ == nullptr) {
      CPGAN_LOG(Warning) << "serve: cannot open request log '"
                         << options_.request_log << "'; logging disabled";
    }
  }
  workers_.reserve(options_.num_workers);
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }

  // Exporter last, so its first tick already sees the worker pool up. Its
  // on_tick publishes SLO gauges before each snapshot; any caller-supplied
  // hook still runs after ours.
  obs::ExporterOptions exporter_options = options_.exporter;
  std::function<void()> caller_tick = exporter_options.on_tick;
  exporter_options.on_tick = [this, caller_tick] {
    slo_.PublishGauges("serve.slo");
    CPGAN_GAUGE_SET("serve.queue_depth", static_cast<double>(queue_depth()));
    if (caller_tick) caller_tick();
  };
  exporter_ = std::make_unique<obs::MetricsExporter>(exporter_options);
  exporter_->Start();
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!started_ || stopping_) return;
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  if (exporter_ != nullptr) {
    // After the workers: the final flush then captures every completed
    // request, including ones finished during the drain.
    exporter_->Stop();
    exporter_.reset();
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    started_ = false;
  }
  std::lock_guard<std::mutex> log_lock(log_mutex_);
  if (log_file_ != nullptr) {
    std::fclose(log_file_);
    log_file_ = nullptr;
  }
}

util::Deadline Server::ResolveDeadline(const Request& request) const {
  double ms = request.deadline_ms;
  if (ms < 0.0) ms = options_.default_deadline_ms;
  if (ms <= 0.0) return util::Deadline();  // unlimited
  return util::Deadline::AfterMillis(ms);
}

Response Server::Submit(const Request& request) {
  auto job = std::make_shared<Job>();
  job->request = request;
  job->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  job->start = Clock::now();
  job->deadline = ResolveDeadline(request);
  received_.fetch_add(1, std::memory_order_relaxed);
  CPGAN_COUNTER_ADD("serve.requests", 1);

  const char* reject = nullptr;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!started_ || stopping_) {
      reject = "server_stopped";
    } else if (static_cast<int>(queue_.size()) >= options_.queue_capacity) {
      reject = "queue_full";
    } else {
      queue_.push_back(job);
      CPGAN_GAUGE_SET("serve.queue_depth",
                      static_cast<double>(queue_.size()));
    }
  }
  if (reject != nullptr) {
    // Shed before any work — but still logged and counted, outside the
    // queue lock (the log append may sleep through backoff retries).
    Response response;
    response.id = job->id;
    response.status = ResponseStatus::kShed;
    response.model = request.model;
    response.detail = reject;
    response.latency_ms = MsSince(job->start);
    int log_retries = 0;
    AppendRequestLog(response, &log_retries);
    response.retries += log_retries;
    Record(response);
    return response;
  }
  queue_cv_.notify_one();

  std::unique_lock<std::mutex> job_lock(job->m);
  job->cv.wait(job_lock, [&job] { return job->done; });
  return job->response;
}

void Server::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and fully drained
      job = queue_.front();
      queue_.pop_front();
      CPGAN_GAUGE_SET("serve.queue_depth", static_cast<double>(queue_.size()));
    }
    Response response = Process(*job);
    Finish(job, std::move(response));
  }
}

Response Server::Process(Job& job) {
  // Everything below — degradation checks, decode, kernels, output writes —
  // runs under this request's context: spans closed in this scope (and in
  // any ParallelFor workers it fans out to) are stamped with the request id
  // so the Chrome trace groups them into one lane per request.
  obs::RequestContext context;
  context.id = job.id;
  obs::ScopedRequestContext request_scope(context);
  CPGAN_TRACE_SPAN("serve/request");

  const Request& request = job.request;
  Response response;
  response.id = job.id;
  response.model = request.model;
  auto finish = [&](ResponseStatus status, const std::string& detail) {
    response.status = status;
    response.detail = detail;
    response.latency_ms = MsSince(job.start);
    return response;
  };
  auto cancelled = [&job] { return job.deadline.expired(); };

  if (cancelled()) return finish(ResponseStatus::kDeadlineExceeded,
                                 "expired_in_queue");

  // Chaos: slow request. Pre-decode stall, interruptible so the deadline
  // still bounds total latency.
  double slow_ms = chaos_.SlowDelayMs(job.id);
  while (slow_ms > 0.0 && !cancelled()) {
    double slice = std::min(slow_ms, 1.0);
    SleepMs(slice);
    slow_ms -= slice;
  }
  if (cancelled()) return finish(ResponseStatus::kDeadlineExceeded,
                                 "expired_before_decode");

  std::shared_ptr<const ServableModel> model = registry_->Find(request.model);
  if (model == nullptr) {
    return finish(ResponseStatus::kError,
                  "unknown_model:" + request.model);
  }

  // Degradation ladder: pressure is the worse of queue occupancy and the
  // advisory memory budget (chaos may add phantom bytes).
  double queue_fraction;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_fraction = static_cast<double>(queue_.size()) /
                     static_cast<double>(options_.queue_capacity);
  }
  double memory_pressure = util::MemoryTracker::Global().BudgetPressure(
      chaos_.AllocPressureBytes(job.id));
  double pressure = std::max(queue_fraction, memory_pressure);
  int level = pressure >= kHeavyPressure  ? 2
              : pressure >= kSoftPressure ? 1
                                          : 0;

  core::GenerateControls controls;
  controls.num_nodes = request.nodes;
  controls.num_edges = request.edges;
  if (level == 1) {
    controls.subgraph_size = kSoftSubgraphSize;
  } else if (level == 2) {
    controls.subgraph_size = kDegradedSubgraphSize;
    controls.max_passes = kDegradedMaxPasses;
  }
  controls.should_abort = cancelled;
  controls.hierarchical = request.hierarchical;

  util::Rng rng(request.seed);
  graph::Graph generated(0);
  {
    CPGAN_TRACE_SPAN("serve/decode");
    // Chaos: worker stall just before the decode — wedges this worker,
    // deliberately not interruptible (a stuck kernel would not be either).
    // Queued requests wait for the other workers and shed or expire once
    // every worker is wedged; this request itself is answered
    // deadline_exceeded below if it ran over.
    const double stall_ms = chaos_.StallDelayMs(job.id);
    if (stall_ms > 0.0) SleepMs(stall_ms);
    if (!cancelled()) generated = model->Generate(controls, rng);
  }
  if (cancelled()) {
    return finish(ResponseStatus::kDeadlineExceeded, "cancelled_mid_decode");
  }

  response.nodes = generated.num_nodes();
  response.edges = generated.num_edges();

  if (!request.out.empty()) {
    // Transient write failures (including injected ones) retry with
    // backoff; the jitter stream is keyed off the request id so reruns are
    // reproducible.
    util::Rng io_rng(request.seed ^ (job.id * 0x9E3779B97F4A7C15ULL));
    util::RetryResult retry = util::RetryWithBackoff(
        options_.io_backoff, io_rng,
        [&] { return WriteEdgeListAtomic(generated, request.out); });
    response.retries += retry.retries();
    if (!retry.ok) {
      return finish(ResponseStatus::kError, "output_write_failed");
    }
  }

  return finish(level >= 2 ? ResponseStatus::kDegraded : ResponseStatus::kOk,
                level >= 2 ? "memory_or_queue_pressure" : "");
}

void Server::Finish(const std::shared_ptr<Job>& job, Response response) {
  int log_retries = 0;
  if (!AppendRequestLog(response, &log_retries)) {
    CPGAN_LOG(Warning) << "serve: request log append failed for id="
                       << response.id;
  }
  response.retries += log_retries;
  Record(response);
  {
    std::lock_guard<std::mutex> job_lock(job->m);
    job->response = std::move(response);
    job->done = true;
  }
  job->cv.notify_all();
}

void Server::Record(const Response& response) {
  switch (response.status) {
    case ResponseStatus::kOk:
      ok_.fetch_add(1, std::memory_order_relaxed);
      CPGAN_COUNTER_ADD("serve.completed", 1);
      break;
    case ResponseStatus::kDegraded:
      degraded_.fetch_add(1, std::memory_order_relaxed);
      CPGAN_COUNTER_ADD("serve.completed", 1);
      CPGAN_COUNTER_ADD("serve.degraded", 1);
      break;
    case ResponseStatus::kShed:
      shed_.fetch_add(1, std::memory_order_relaxed);
      CPGAN_COUNTER_ADD("serve.shed", 1);
      break;
    case ResponseStatus::kDeadlineExceeded:
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      CPGAN_COUNTER_ADD("serve.deadline_exceeded", 1);
      break;
    case ResponseStatus::kError:
      errors_.fetch_add(1, std::memory_order_relaxed);
      CPGAN_COUNTER_ADD("serve.errors", 1);
      break;
  }
  if (response.retries > 0) {
    retries_.fetch_add(static_cast<uint64_t>(response.retries),
                       std::memory_order_relaxed);
    CPGAN_COUNTER_ADD("serve.retries",
                      static_cast<uint64_t>(response.retries));
  }
  const uint64_t latency_ns =
      static_cast<uint64_t>(std::max(0.0, response.latency_ms) * 1e6);
  CPGAN_HISTOGRAM_OBSERVE("serve.latency_ns", latency_ns);
  // SLO view of the same outcome: degraded responses still count as
  // available (the ladder exists precisely to keep them so), everything
  // else eats the availability error budget.
  slo_.Observe(latency_ns, response.status == ResponseStatus::kOk ||
                               response.status == ResponseStatus::kDegraded);
}

bool Server::AppendRequestLog(const Response& response, int* log_retries) {
  *log_retries = 0;
  {
    std::lock_guard<std::mutex> lock(log_mutex_);
    if (log_file_ == nullptr) return true;
  }
  // The protocol accepts any UTF-8 model name, quotes and backslashes
  // included.
  const std::string model = obs::JsonEscape(response.model);
  util::Rng io_rng(response.id ^ 0xA5A5A5A5A5A5A5A5ULL);
  util::RetryResult retry = util::RetryWithBackoff(
      options_.io_backoff, io_rng, [&] {
        if (chaos_.ConsumeLogFault()) return false;
        std::lock_guard<std::mutex> lock(log_mutex_);
        if (log_file_ == nullptr) return true;
        int rc = std::fprintf(
            log_file_,
            "{\"id\":%" PRIu64
            ",\"status\":\"%s\",\"model\":\"%s\",\"nodes\":%d,"
            "\"edges\":%" PRId64 ",\"latency_ms\":%.3f,\"retries\":%d}\n",
            response.id, StatusName(response.status), model.c_str(),
            response.nodes, response.edges, response.latency_ms,
            response.retries);
        if (rc < 0) return false;
        return std::fflush(log_file_) == 0;
      });
  *log_retries = retry.retries();
  return retry.ok;
}

std::string Server::StatsLine(uint64_t id) {
  ServerStats stats = Stats();
  int depth = queue_depth();
  obs::SloSnapshot slo = slo_.Snapshot();
  char buffer[1024];
  std::snprintf(
      buffer, sizeof(buffer),
      "id=%" PRIu64
      " status=ok stats={\"received\":%" PRIu64 ",\"completed\":%" PRIu64
      ",\"ok\":%" PRIu64 ",\"degraded\":%" PRIu64 ",\"shed\":%" PRIu64
      ",\"deadline_exceeded\":%" PRIu64 ",\"errors\":%" PRIu64
      ",\"retries\":%" PRIu64 ",\"queue_depth\":%d,"
      "\"slo\":{\"window_total\":%" PRIu64
      ",\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f"
      ",\"availability\":%.6f,\"latency_compliance\":%.6f"
      ",\"availability_burn_rate\":%.3f,\"latency_burn_rate\":%.3f"
      ",\"window_s\":%.1f},"
      "\"exporter\":{\"running\":%s,\"snapshots\":%d}}",
      id, stats.received, stats.completed, stats.ok, stats.degraded,
      stats.shed, stats.deadline_exceeded, stats.errors, stats.retries,
      depth, slo.total, slo.p50_ms, slo.p95_ms, slo.p99_ms,
      slo.availability, slo.latency_compliance,
      slo.availability_burn_rate, slo.latency_burn_rate, slo.window_s,
      exporter_ != nullptr && exporter_->running() ? "true" : "false",
      exporter_ != nullptr ? exporter_->snapshots_written() : 0);
  return buffer;
}

std::string Server::HandleLine(const std::string& line, bool* quit) {
  if (quit != nullptr) *quit = false;
  Request request;
  std::string parse_error;
  if (!ParseRequest(line, &request, &parse_error)) {
    if (parse_error == "empty") return "";
    Response response;
    response.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    response.status = ResponseStatus::kError;
    response.detail = "parse:" + parse_error;
    errors_.fetch_add(1, std::memory_order_relaxed);
    CPGAN_COUNTER_ADD("serve.errors", 1);
    return FormatResponse(response);
  }
  switch (request.verb) {
    case Verb::kGenerate:
      return FormatResponse(Submit(request));
    case Verb::kReload: {
      Response response;
      response.id = next_id_.fetch_add(1, std::memory_order_relaxed);
      response.model = request.model;
      Clock::time_point start = Clock::now();
      std::string error;
      bool ok = registry_->Reload(request.model, request.checkpoint,
                                  options_.io_backoff, &error, &chaos_);
      response.latency_ms = MsSince(start);
      if (ok) {
        response.status = ResponseStatus::kOk;
        if (auto model = registry_->Find(request.model)) {
          response.nodes = model->observed_nodes();
          response.edges = model->observed_edges();
        }
      } else {
        response.status = ResponseStatus::kError;
        response.detail = "reload_failed:" + error;
        errors_.fetch_add(1, std::memory_order_relaxed);
      }
      return FormatResponse(response);
    }
    case Verb::kStats:
      return StatsLine(next_id_.fetch_add(1, std::memory_order_relaxed));
    case Verb::kQuit: {
      if (quit != nullptr) *quit = true;
      Response response;
      response.id = next_id_.fetch_add(1, std::memory_order_relaxed);
      response.status = ResponseStatus::kOk;
      response.detail = "bye";
      return FormatResponse(response);
    }
  }
  return "";
}

int Server::RunStdio(std::FILE* in, std::FILE* out) {
  Start();
  std::string line;
  char buffer[4096];
  while (std::fgets(buffer, sizeof(buffer), in) != nullptr) {
    line.assign(buffer);
    // Reassemble lines longer than the buffer.
    while (!line.empty() && line.back() != '\n' &&
           std::fgets(buffer, sizeof(buffer), in) != nullptr) {
      line.append(buffer);
    }
    bool quit = false;
    std::string response = HandleLine(line, &quit);
    if (!response.empty()) {
      std::fprintf(out, "%s\n", response.c_str());
      std::fflush(out);
    }
    if (quit) break;
  }
  Stop();
  return 0;
}

ServerStats Server::Stats() const {
  ServerStats stats;
  stats.received = received_.load(std::memory_order_relaxed);
  stats.ok = ok_.load(std::memory_order_relaxed);
  stats.degraded = degraded_.load(std::memory_order_relaxed);
  stats.completed = stats.ok + stats.degraded;
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.deadline_exceeded =
      deadline_exceeded_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  stats.retries = retries_.load(std::memory_order_relaxed);
  return stats;
}

int Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return static_cast<int>(queue_.size());
}

}  // namespace cpgan::serve
