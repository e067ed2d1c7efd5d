#ifndef PAE_UTIL_THREAD_POOL_H_
#define PAE_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pae::util {

/// Fixed-size worker pool for data-parallel loops over index ranges.
///
/// Determinism contract: ParallelFor partitions [begin, end) into chunks
/// of `grain` consecutive indices. Chunks may run on any worker in any
/// order, so a correct `fn` only writes state owned by its own index (or
/// chunk). For floating-point reductions use OrderedReduce (below),
/// whose decomposition is a pure function of the problem size — never of
/// the thread count or the scheduling — and whose partial results merge
/// in shard index order, so sums are bit-identical for every thread
/// count, 1 included.
class ThreadPool {
 public:
  /// Spawns `threads - 1` workers; the calling thread participates in
  /// every loop, so `threads == 1` runs loops inline and creates no
  /// worker threads at all. Values < 1 are clamped to 1.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn(i) for every i in [begin, end), distributing chunks of
  /// `grain` consecutive indices across the pool (grain 0 counts as 1).
  /// Blocks until every index has been processed. If invocations throw,
  /// every chunk still runs and the exception raised by the lowest
  /// throwing chunk is rethrown here — a deterministic choice, unlike
  /// "first to throw wins".
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t)>& fn)
      PAE_EXCLUDES(mutex_);

  /// Hardware concurrency with a floor of 1 (hardware_concurrency may
  /// legally return 0).
  static int DefaultThreads();

  /// Resolves a user-facing thread-count knob: 0 means "auto"
  /// (DefaultThreads), negative values clamp to 1. Callers with a Status
  /// channel should reject negatives before resolving; this clamp is the
  /// UB-free safety net for the ones without.
  static int ResolveThreads(int configured);

 private:
  struct Job {
    size_t begin = 0;
    size_t end = 0;
    size_t grain = 1;
    size_t num_chunks = 0;
    const std::function<void(size_t)>* fn = nullptr;
    std::atomic<size_t> next_chunk{0};
    std::atomic<size_t> chunks_done{0};
    Mutex error_mutex;
    /// Lowest-chunk exception wins; both fields move under error_mutex
    /// (read back on the caller thread only after every chunk joined).
    std::exception_ptr error PAE_GUARDED_BY(error_mutex);
    size_t error_chunk PAE_GUARDED_BY(error_mutex) = SIZE_MAX;
    /// Total nanoseconds threads spent inside RunChunks for this job;
    /// feeds the threadpool.busy_nanos utilization counter.
    std::atomic<int64_t> busy_nanos{0};
  };

  void WorkerLoop();
  /// Claims chunks from `job` until none remain. Runs on workers and on
  /// the calling thread alike.
  void RunChunks(Job* job);

  int num_threads_ = 1;
  std::vector<std::thread> workers_;

  Mutex mutex_;
  CondVar wake_;  // workers: a new job (or stop) arrived
  CondVar done_;  // caller: all chunks of the job finished
  std::shared_ptr<Job> job_ PAE_GUARDED_BY(mutex_);
  uint64_t epoch_ PAE_GUARDED_BY(mutex_) = 0;  // job generation
  bool stop_ PAE_GUARDED_BY(mutex_) = false;
};

/// Number of shards an ordered reduction splits `n` items into: one
/// shard per `grain` items, capped at `max_shards`, and never a function
/// of the thread count — the cap is what bounds the merge cost and the
/// per-shard accumulator memory.
inline size_t NumReductionShards(size_t n, size_t grain, size_t max_shards) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  if (max_shards == 0) max_shards = 1;
  const size_t shards = (n + grain - 1) / grain;
  return shards < max_shards ? shards : max_shards;
}

/// First item of shard `s` of `shards` over [0, n): shard s covers
/// [ReductionShardBegin(s, ...), ReductionShardBegin(s + 1, ...)).
inline size_t ReductionShardBegin(size_t s, size_t n, size_t shards) {
  return s * n / shards;
}

/// Deterministic ordered reduction over [0, n).
///
/// The range splits into NumReductionShards(n, grain, max_shards)
/// contiguous shards: shard s covers [s*n/S, (s+1)*n/S). For each shard
/// `make_state()` builds a private accumulator (called on the calling
/// thread, in shard order), `item(state, i)` folds item i into it with i
/// ascending inside the shard, and once every shard has finished
/// `merge(state, s)` runs on the calling thread in ascending shard
/// order. Because the decomposition and the merge order depend only on
/// (n, grain, max_shards), the result — floating-point rounding included
/// — is identical for every pool size.
template <typename State, typename MakeState, typename ItemFn,
          typename MergeFn>
void OrderedReduce(ThreadPool& pool, size_t n, size_t grain,
                   size_t max_shards, MakeState make_state, ItemFn item,
                   MergeFn merge) {
  const size_t shards = NumReductionShards(n, grain, max_shards);
  if (shards == 0) return;
  std::vector<State> states;
  states.reserve(shards);
  for (size_t s = 0; s < shards; ++s) states.push_back(make_state());
  pool.ParallelFor(0, shards, 1, [&](size_t s) {
    const size_t lo = ReductionShardBegin(s, n, shards);
    const size_t hi = ReductionShardBegin(s + 1, n, shards);
    State& state = states[s];
    for (size_t i = lo; i < hi; ++i) item(state, i);
  });
  for (size_t s = 0; s < shards; ++s) merge(states[s], s);
}

}  // namespace pae::util

#endif  // PAE_UTIL_THREAD_POOL_H_
