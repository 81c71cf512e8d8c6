#ifndef CPGAN_UTIL_THREAD_POOL_H_
#define CPGAN_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/request_context.h"

namespace cpgan::util {

/// Persistent work-sharing thread pool behind every parallel kernel.
///
/// Determinism contract: ParallelFor splits [begin, end) into fixed chunks
/// of at most `grain` iterations. Chunk boundaries depend only on the range
/// and the grain — never on the thread count or on scheduling — and every
/// kernel either writes disjoint state per chunk or reduces per-chunk
/// partials in chunk order (ParallelSum). The thread count therefore only
/// decides *which thread* runs a chunk; results are bitwise identical for
/// any pool size, including 1. See docs/INTERNALS.md ("Threading model").
///
/// Any number of threads may post regions at once (the serving runtime
/// decodes several requests concurrently). The workers serve one region at
/// a time: a caller that finds them taken by another thread's region runs
/// its own region on its own thread, through the serial path with the same
/// chunk boundaries and chunk order, so the determinism contract holds for
/// every caller. Regions started from inside a region run inline the same
/// way.
class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers (the calling thread participates in
  /// every parallel region, so `num_threads == 1` spawns none and all work
  /// runs inline). `num_threads` is clamped to [1, kMaxThreads].
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  static constexpr int kMaxThreads = 1024;

  int num_threads() const { return num_threads_; }

  /// Process-wide pool used by the tensor/graph kernels. Sized on first use
  /// from the CPGAN_NUM_THREADS environment variable, defaulting to
  /// std::thread::hardware_concurrency().
  static ThreadPool& Global();

  /// Resizes the global pool (tears the workers down and respawns them).
  /// Must not be called while any thread may be executing a parallel region.
  static void SetGlobalThreads(int num_threads);

  /// Thread count requested by CPGAN_NUM_THREADS (clamped), or the hardware
  /// concurrency (at least 1) when the variable is unset or invalid.
  static int ThreadsFromEnv();

  /// Number of chunks ParallelFor creates for this range/grain — a pure
  /// function of (begin, end, grain), independent of the thread count.
  static int64_t NumChunks(int64_t begin, int64_t end, int64_t grain);

  /// Runs fn(chunk_begin, chunk_end) for every chunk of [begin, end).
  /// Chunks are claimed dynamically by the workers plus the calling thread,
  /// so skewed chunks load-balance, but the chunk boundaries themselves are
  /// static (see class comment). Calls made from inside a parallel region,
  /// or while another thread's region holds the workers, run inline and
  /// serially (nested-call safe). The first exception thrown by fn is
  /// rethrown on the calling thread after all chunks finish; other callers
  /// never see it.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn);

  /// As ParallelFor, but fn also receives the chunk index so reductions can
  /// store per-chunk partials and combine them in chunk order.
  void ParallelForChunked(
      int64_t begin, int64_t end, int64_t grain,
      const std::function<void(int64_t, int64_t, int64_t)>& fn);

 private:
  /// One posted parallel region. Lives on the caller's stack; workers only
  /// touch it between registration and deregistration (both under mutex_),
  /// and the caller waits for `workers_inside == 0` before returning.
  struct Job {
    const std::function<void(int64_t, int64_t, int64_t)>* fn = nullptr;
    // Request-scoped trace context of the posting thread, re-installed on
    // every worker while it executes chunks of this region, so spans inside
    // kernels stay attributed to the request that issued them
    // (observational only — never read by the work itself).
    obs::RequestContext request_context;
    int64_t begin = 0;
    int64_t end = 0;
    int64_t grain = 1;
    int64_t num_chunks = 0;
    int64_t next_chunk = 0;        // guarded by the pool mutex_
    int64_t done_chunks = 0;       // guarded by mutex_
    int64_t max_thread_chunks = 0;  // guarded by mutex_; most chunks any
                                    // one thread ran (imbalance telemetry)
    int workers_inside = 0;    // guarded by mutex_
    std::exception_ptr error;  // guarded by mutex_
  };

  void WorkerLoop();

  /// Claims and runs chunks of `job` until none remain. Returns the number
  /// of chunks executed by this thread. Exceptions are stored in job.error.
  void ExecuteChunks(Job& job);

  int num_threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers wait here for a job
  std::condition_variable done_cv_;  // job_'s poster waits here
  Job* job_ = nullptr;               // guarded by mutex_; the region
                                     // holding the workers, if any
  uint64_t job_epoch_ = 0;           // guarded by mutex_; bumps per job
  bool shutdown_ = false;            // guarded by mutex_
};

/// ThreadPool::Global().ParallelFor shorthand.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

/// ThreadPool::Global().ParallelForChunked shorthand.
void ParallelForChunked(int64_t begin, int64_t end, int64_t grain,
                        const std::function<void(int64_t, int64_t, int64_t)>& fn);

/// Deterministic parallel sum: fn returns the partial for its chunk; the
/// partials are combined in chunk order, so the result is identical for any
/// thread count (the chunking itself is what fixes the summation order).
double ParallelSum(int64_t begin, int64_t end, int64_t grain,
                   const std::function<double(int64_t, int64_t)>& fn);

}  // namespace cpgan::util

#endif  // CPGAN_UTIL_THREAD_POOL_H_
