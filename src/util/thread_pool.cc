#include "util/thread_pool.h"

#include <cstdlib>
#include <memory>

#include "obs/metrics.h"
#include "obs/request_context.h"
#include "util/check.h"

namespace cpgan::util {

namespace {

/// True while this thread is executing chunks of some parallel region.
/// Worker threads set it for their whole lifetime; the calling thread sets
/// it around its own chunk execution. A ParallelFor issued while the flag is
/// set runs inline — a nested parallel region sharing the same workers
/// would deadlock waiting for them.
thread_local bool t_inside_parallel_region = false;

std::mutex& GlobalPoolMutex() {
  static std::mutex* m = new std::mutex();
  return *m;
}

std::unique_ptr<ThreadPool>& GlobalPoolSlot() {
  static std::unique_ptr<ThreadPool>* pool =
      new std::unique_ptr<ThreadPool>();
  return *pool;
}

int ClampThreads(int n) {
  if (n < 1) return 1;
  if (n > ThreadPool::kMaxThreads) return ThreadPool::kMaxThreads;
  return n;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) : num_threads_(ClampThreads(num_threads)) {
  CPGAN_GAUGE_SET("threadpool/threads", num_threads_);
  workers_.reserve(num_threads_ - 1);
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(GlobalPoolMutex());
  std::unique_ptr<ThreadPool>& pool = GlobalPoolSlot();
  if (!pool) pool = std::make_unique<ThreadPool>(ThreadsFromEnv());
  return *pool;
}

void ThreadPool::SetGlobalThreads(int num_threads) {
  std::lock_guard<std::mutex> lock(GlobalPoolMutex());
  std::unique_ptr<ThreadPool>& pool = GlobalPoolSlot();
  if (pool && pool->num_threads() == ClampThreads(num_threads)) return;
  pool = std::make_unique<ThreadPool>(num_threads);
}

int ThreadPool::ThreadsFromEnv() {
  const char* env = std::getenv("CPGAN_NUM_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && v > 0) {
      return ClampThreads(static_cast<int>(v));
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return ClampThreads(hw == 0 ? 1 : static_cast<int>(hw));
}

int64_t ThreadPool::NumChunks(int64_t begin, int64_t end, int64_t grain) {
  CPGAN_CHECK_GT(grain, 0);
  if (end <= begin) return 0;
  return (end - begin + grain - 1) / grain;
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t, int64_t)>& fn) {
  ParallelForChunked(begin, end, grain,
                     [&fn](int64_t b, int64_t e, int64_t) { fn(b, e); });
}

void ThreadPool::ParallelForChunked(
    int64_t begin, int64_t end, int64_t grain,
    const std::function<void(int64_t, int64_t, int64_t)>& fn) {
  const int64_t num_chunks = NumChunks(begin, end, grain);
  if (num_chunks == 0) return;

  Job job;
  bool posted = false;
  if (num_chunks > 1 && num_threads_ > 1 && !t_inside_parallel_region) {
    job.fn = &fn;
    job.request_context = obs::CurrentRequestContext();
    job.begin = begin;
    job.end = end;
    job.grain = grain;
    job.num_chunks = num_chunks;
    // The workers serve one region at a time. A caller that finds them
    // taken by another thread's region runs its own on the serial path.
    std::lock_guard<std::mutex> lock(mutex_);
    if (job_ == nullptr) {
      job_ = &job;
      ++job_epoch_;
      posted = true;
    }
  }
  if (!posted) {
    // Serial path: same chunk boundaries, executed in chunk order inline.
    // (Exceptions propagate naturally.)
    CPGAN_COUNTER_ADD("threadpool/inline_regions", 1);
    for (int64_t c = 0; c < num_chunks; ++c) {
      int64_t b = begin + c * grain;
      int64_t e = b + grain < end ? b + grain : end;
      fn(b, e, c);
    }
    return;
  }

  CPGAN_COUNTER_ADD("threadpool/regions", 1);
  CPGAN_COUNTER_ADD("threadpool/chunks", static_cast<uint64_t>(num_chunks));
  work_cv_.notify_all();

  // The caller works too.
  t_inside_parallel_region = true;
  ExecuteChunks(job);
  t_inside_parallel_region = false;

  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&job] {
    return job.done_chunks == job.num_chunks && job.workers_inside == 0;
  });
  job_ = nullptr;  // late-waking workers see no job and keep waiting
  std::exception_ptr error = job.error;
  int64_t max_thread_chunks = job.max_thread_chunks;
  lock.unlock();
  // Imbalance = busiest thread's share over the ideal even share; 1.0 means
  // perfectly balanced. Observation only — never fed back into scheduling.
  int64_t even_share = (num_chunks + num_threads_ - 1) / num_threads_;
  if (even_share > 0) {
    CPGAN_GAUGE_SET("threadpool/imbalance",
                    static_cast<double>(max_thread_chunks) /
                        static_cast<double>(even_share));
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::WorkerLoop() {
  t_inside_parallel_region = true;  // nested ParallelFor from a worker inlines
  uint64_t seen_epoch = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || (job_ != nullptr && job_epoch_ != seen_epoch);
      });
      if (shutdown_) return;
      seen_epoch = job_epoch_;
      job = job_;
      ++job->workers_inside;
    }
    ExecuteChunks(*job);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --job->workers_inside;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::ExecuteChunks(Job& job) {
  // Adopt the posting thread's request context for the duration of this
  // region (a no-op re-install on the posting thread itself).
  obs::ScopedRequestContext request_scope(job.request_context);
  int64_t executed = 0;
  for (;;) {
    int64_t c;
    bool skip;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (job.next_chunk >= job.num_chunks) break;
      c = job.next_chunk++;
      skip = job.error != nullptr;  // drain remaining chunks after a throw
    }
    if (!skip) {
      int64_t b = job.begin + c * job.grain;
      int64_t e = b + job.grain < job.end ? b + job.grain : job.end;
      try {
        (*job.fn)(b, e, c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!job.error) job.error = std::current_exception();
      }
    }
    ++executed;
  }
  if (executed > 0) {
    bool complete;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job.done_chunks += executed;
      if (executed > job.max_thread_chunks) job.max_thread_chunks = executed;
      complete = job.done_chunks == job.num_chunks;
    }
    if (complete) done_cv_.notify_one();
  }
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  ThreadPool::Global().ParallelFor(begin, end, grain, fn);
}

void ParallelForChunked(
    int64_t begin, int64_t end, int64_t grain,
    const std::function<void(int64_t, int64_t, int64_t)>& fn) {
  ThreadPool::Global().ParallelForChunked(begin, end, grain, fn);
}

double ParallelSum(int64_t begin, int64_t end, int64_t grain,
                   const std::function<double(int64_t, int64_t)>& fn) {
  const int64_t num_chunks = ThreadPool::NumChunks(begin, end, grain);
  if (num_chunks == 0) return 0.0;
  if (num_chunks == 1) return fn(begin, end);
  std::vector<double> partials(static_cast<size_t>(num_chunks), 0.0);
  ThreadPool::Global().ParallelForChunked(
      begin, end, grain, [&partials, &fn](int64_t b, int64_t e, int64_t c) {
        partials[static_cast<size_t>(c)] = fn(b, e);
      });
  double total = 0.0;
  for (double p : partials) total += p;  // fixed chunk order
  return total;
}

}  // namespace cpgan::util
