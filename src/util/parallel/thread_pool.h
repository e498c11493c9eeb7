#ifndef AUTOTEST_UTIL_PARALLEL_THREAD_POOL_H_
#define AUTOTEST_UTIL_PARALLEL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace autotest::util::parallel {

/// Per-call knobs for the parallel loops below.
struct Options {
  /// Max participants (caller included). 0 = DefaultThreadCount().
  size_t num_threads = 0;
  /// Items per chunk. 0 = heuristic: ParallelFor/ParallelForEachChunk size
  /// chunks off the participant count; ParallelReduce uses a grain that
  /// depends only on n so its merge tree is identical across thread counts.
  size_t grain = 0;
};

/// Chunk body: invoked as fn(begin, end) with begin < end.
using ChunkFn = std::function<void(size_t, size_t)>;

/// Persistent work-stealing pool. Workers are lazily spawned on first use
/// and reused across calls; each parallel region partitions its chunks into
/// per-participant ranges, owners pop from the front of their own range and
/// idle participants steal single chunks from the back of a victim's range.
/// Ranges only ever shrink (front CAS up, back CAS down), which rules out
/// ABA on the packed (lo, hi) words.
///
/// Determinism contract: every chunk executes exactly once; callers write
/// results to per-index (or per-chunk) slots and merge them in index order
/// after the region ends, so results are independent of the schedule and of
/// the thread count. Nested parallel regions execute inline (serially) on
/// the calling worker.
///
/// Fork: the pool takes its locks before a fork and releases them after it
/// in both processes (pthread_atfork), so a fork never copies a lock a
/// worker holds. The child has none of the parent's workers: it forgets
/// them, never joining them, and runs its regions serially on the calling
/// thread, which is what a gtest "fast" death test's child needs.
class ThreadPool {
 public:
  /// The process-wide pool. First call constructs it; workers are spawned
  /// on demand as regions request more participants.
  static ThreadPool& Global();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs every chunk [c*grain, min(n, (c+1)*grain)), c in [0, ceil(n/grain)),
  /// through body on up to num_threads participants (caller included;
  /// 0 = DefaultThreadCount()). Blocks until all chunks are done. Safe to
  /// call from multiple external threads (regions are serialized) and from
  /// inside a running region (the nested region runs inline).
  void RunChunked(size_t n, size_t grain, size_t num_threads,
                  const ChunkFn& body);

  /// Worker threads currently alive (excludes callers); 0 in a forked
  /// child.
  size_t num_workers() const;

 private:
  struct JobState;

  ThreadPool();
  // pthread_atfork handlers of the global pool.
  static void PrepareFork();
  static void AfterForkInParent();
  static void AfterForkInChild();
  void EnsureWorkers(size_t want);
  void WorkerLoop();
  static void WorkOn(JobState& job, size_t slot);
  static void RunSerial(size_t n, size_t grain, const ChunkFn& body);

  /// Serializes regions from distinct external threads; always taken
  /// before mu_ (R9 edge).
  util::Mutex run_mu_ AT_ACQUIRED_BEFORE(mu_);
  mutable util::Mutex mu_;
  util::CondVar wake_cv_;  // workers: a new region was posted
  util::CondVar done_cv_;  // submitter: region fully drained
  JobState* job_ AT_GUARDED_BY(mu_) = nullptr;
  uint64_t epoch_ AT_GUARDED_BY(mu_) = 0;
  bool stop_ AT_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_ AT_GUARDED_BY(mu_);
  // Set in a forked child: no workers, every region serial.
  std::atomic<bool> forked_{false};
};

/// Default participant count: the number of CPUs in the calling thread's
/// affinity mask (sched_getaffinity), so `taskset` and cpusets size the
/// pool; hardware_concurrency when the mask is unavailable; at least 1.
size_t DefaultThreadCount();

/// One-line dump of the pool's `parallel.*` registry counters, for benches
/// and `--parallel-stats`.
std::string FormatStats();

/// Runs fn(i) for every i in [0, n) exactly once; blocks until done.
/// fn must be safe to call concurrently for distinct indices; write outputs
/// to per-index slots to keep the computation deterministic.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 const Options& opt = {});

/// Runs fn(begin, end) over a chunked partition of [0, n); the partition is
/// a pure function of (n, grain), never of the thread count.
void ParallelForEachChunk(size_t n, const ChunkFn& fn,
                          const Options& opt = {});

/// Grain used by ParallelReduce when opt.grain == 0: depends only on n, so
/// chunk boundaries — and therefore floating-point merge order — are
/// identical across thread counts.
size_t ReduceGrain(size_t n);

/// Deterministic parallel reduction. map(i, acc) folds item i into a
/// chunk-local accumulator seeded with identity; chunk partials are then
/// merged serially in ascending chunk order via reduce(acc, partial).
/// Because the chunk partition depends only on (n, grain), results are
/// bit-identical across thread counts, including for floating point.
template <typename T, typename MapFn, typename ReduceFn>
T ParallelReduce(size_t n, T identity, MapFn&& map, ReduceFn&& reduce,
                 const Options& opt = {}) {
  if (n == 0) return identity;
  const size_t grain = opt.grain != 0 ? opt.grain : ReduceGrain(n);
  const size_t num_chunks = (n + grain - 1) / grain;
  std::vector<T> partials(num_chunks, identity);
  ThreadPool::Global().RunChunked(
      n, grain, opt.num_threads, [&](size_t begin, size_t end) {
        T acc = identity;
        for (size_t i = begin; i < end; ++i) map(i, acc);
        partials[begin / grain] = std::move(acc);
      });
  T out = std::move(identity);
  for (size_t c = 0; c < num_chunks; ++c) {
    out = reduce(std::move(out), std::move(partials[c]));
  }
  return out;
}

}  // namespace autotest::util::parallel

#endif  // AUTOTEST_UTIL_PARALLEL_THREAD_POOL_H_
