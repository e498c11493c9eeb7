#include "util/parallel/thread_pool.h"

#include <pthread.h>

#ifdef __linux__
#include <sched.h>
#endif

#include <algorithm>
#include <cstdio>

#include "util/check.h"
#include "util/metrics.h"

namespace autotest::util::parallel {

namespace {

// Hard cap on pool threads; regions requesting more are clamped. Generous
// relative to any machine this runs on while bounding oversubscription in
// tests that ask for more threads than cores.
constexpr size_t kMaxWorkers = 63;

// Target chunks per participant: enough slack for stealing to balance
// skewed items without paying a CAS per index.
constexpr size_t kChunksPerParticipant = 8;
constexpr size_t kMaxGrain = 4096;

// A claimable range of chunk indices packed as (hi << 32) | lo. Owners pop
// lo upward, thieves pop hi downward; the interval only shrinks, so a CAS
// can never succeed against a stale snapshot.
uint64_t PackRange(uint32_t lo, uint32_t hi) {
  return (static_cast<uint64_t>(hi) << 32) | lo;
}
uint32_t RangeLo(uint64_t bits) { return static_cast<uint32_t>(bits); }
uint32_t RangeHi(uint64_t bits) { return static_cast<uint32_t>(bits >> 32); }

// True while the current thread is executing inside a parallel region
// (as submitter or worker); nested regions then run inline.
thread_local bool tl_in_region = false;

// True on the thread that took the pool's locks before a fork, until the
// handler after the fork releases them. A thread inside a region forks
// without them: as a submitter it already holds run_mu_, and as a worker
// it would wait on a region that waits on it.
thread_local bool tl_fork_locked = false;

size_t HeuristicGrain(size_t n, size_t participants) {
  size_t grain = n / (participants * kChunksPerParticipant);
  return std::clamp<size_t>(grain, 1, kMaxGrain);
}

// The pool's `parallel.*` registry counters, cached once so the hot path
// never takes the registry lock.
struct Counters {
  // Parallel-region entries, including ones that fell back to serial.
  metrics::Counter& invocations;
  // Regions run inline on the caller (n too small, one thread requested,
  // or a nested call inside a running region).
  metrics::Counter& serial_invocations;
  metrics::Counter& items;
  metrics::Counter& chunks;
  // Chunks a worker claimed from another worker's range.
  metrics::Counter& steals;
  // Per parallel region: participants that joined (submitter included)
  // and participant slots offered.
  metrics::Counter& participants;
  metrics::Counter& slots_offered;
};

Counters& PoolCounters() {
  static Counters counters = [] {
    metrics::Registry& reg = metrics::Registry::Global();
    return Counters{reg.GetCounter(metrics::kMParallelInvocations),
                    reg.GetCounter(metrics::kMParallelSerialInvocations),
                    reg.GetCounter(metrics::kMParallelItems),
                    reg.GetCounter(metrics::kMParallelChunks),
                    reg.GetCounter(metrics::kMParallelSteals),
                    reg.GetCounter(metrics::kMParallelParticipants),
                    reg.GetCounter(metrics::kMParallelSlotsOffered)};
  }();
  return counters;
}

}  // namespace

std::string FormatStats() {
  const Counters& c = PoolCounters();
  const uint64_t participants = c.participants.value();
  const uint64_t slots_offered = c.slots_offered.value();
  const double utilization =
      slots_offered == 0 ? 1.0
                         : static_cast<double>(participants) /
                               static_cast<double>(slots_offered);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "parallel::Stats: invocations=%llu (serial=%llu) "
                "items=%llu chunks=%llu steals=%llu utilization=%.0f%% "
                "(participants %llu/%llu)",
                static_cast<unsigned long long>(c.invocations.value()),
                static_cast<unsigned long long>(c.serial_invocations.value()),
                static_cast<unsigned long long>(c.items.value()),
                static_cast<unsigned long long>(c.chunks.value()),
                static_cast<unsigned long long>(c.steals.value()),
                100.0 * utilization,
                static_cast<unsigned long long>(participants),
                static_cast<unsigned long long>(slots_offered));
  return buf;
}

size_t DefaultThreadCount() {
#ifdef __linux__
  // The CPUs this thread may run on: honours taskset and cpusets, which
  // hardware_concurrency() ignores.
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int n = CPU_COUNT(&mask);
    if (n > 0) return static_cast<size_t>(n);
  }
#endif
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<size_t>(hc);
}

struct ThreadPool::JobState {
  const ChunkFn* body = nullptr;
  size_t n = 0;
  size_t grain = 0;
  size_t num_chunks = 0;
  size_t slots = 0;  // max participants, submitter included
  // Per-participant claimable chunk ranges, padded against false sharing.
  struct alignas(64) Range {
    std::atomic<uint64_t> bits{0};
  };
  std::vector<Range> ranges;
  // Next participant slot; the submitter holds ticket 0.
  std::atomic<uint32_t> tickets{1};
  // Chunks not yet fully executed; the region is done at zero.
  std::atomic<uint64_t> remaining{0};
  // Pool workers currently inside WorkOn for this job. The submitter waits
  // for this to drain before the JobState leaves scope.
  std::atomic<uint32_t> active{0};
};

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool() {
  // The pool is the process-wide Global(), built once, so the handlers are
  // registered once.
  AT_CHECK(pthread_atfork(&ThreadPool::PrepareFork,
                          &ThreadPool::AfterForkInParent,
                          &ThreadPool::AfterForkInChild) == 0);
}

// The fork handlers take the locks in one function and release them in
// another, and the child touches workers_ with no lock held, being one
// thread: the analysis can follow neither, hence
// AT_NO_THREAD_SAFETY_ANALYSIS on all three.
void ThreadPool::PrepareFork() AT_NO_THREAD_SAFETY_ANALYSIS {
  if (tl_in_region) return;
  ThreadPool& pool = Global();
  pool.run_mu_.Lock();
  pool.mu_.Lock();
  tl_fork_locked = true;
}

void ThreadPool::AfterForkInParent() AT_NO_THREAD_SAFETY_ANALYSIS {
  if (!tl_fork_locked) return;
  ThreadPool& pool = Global();
  pool.mu_.Unlock();
  pool.run_mu_.Unlock();
  tl_fork_locked = false;
}

void ThreadPool::AfterForkInChild() AT_NO_THREAD_SAFETY_ANALYSIS {
  ThreadPool& pool = Global();
  if (tl_fork_locked) {
    pool.mu_.Unlock();
    pool.run_mu_.Unlock();
    tl_fork_locked = false;
  }
  pool.forked_.store(true, std::memory_order_relaxed);
  // The parent's workers do not exist here. Their handles move to a holder
  // that is never destroyed, so no one joins them, and ~thread, which
  // would terminate on a joinable handle, never runs. The child is one
  // thread, so no lock is needed.
  static std::vector<std::thread>* forgotten = new std::vector<std::thread>;
  for (std::thread& worker : pool.workers_) {
    forgotten->push_back(std::move(worker));
  }
  pool.workers_.clear();
}

ThreadPool::~ThreadPool() {
  if (forked_.load(std::memory_order_relaxed)) return;
  std::vector<std::thread> workers;
  {
    MutexLock lk(&mu_);
    stop_ = true;
    workers.swap(workers_);
  }
  wake_cv_.NotifyAll();
  for (auto& t : workers) t.join();
}

size_t ThreadPool::num_workers() const {
  if (forked_.load(std::memory_order_relaxed)) return 0;
  MutexLock lk(&mu_);
  return workers_.size();
}

void ThreadPool::EnsureWorkers(size_t want) {
  want = std::min(want, kMaxWorkers);
  MutexLock lk(&mu_);
  while (workers_.size() < want) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::RunSerial(size_t n, size_t grain, const ChunkFn& body) {
  for (size_t begin = 0; begin < n; begin += grain) {
    body(begin, std::min(n, begin + grain));
  }
}

void ThreadPool::RunChunked(size_t n, size_t grain, size_t num_threads,
                            const ChunkFn& body) {
  Counters& st = PoolCounters();
  st.invocations.Increment();
  if (n == 0) return;
  if (num_threads == 0) num_threads = DefaultThreadCount();
  num_threads = std::min(num_threads, kMaxWorkers + 1);
  if (grain == 0) grain = HeuristicGrain(n, num_threads);
  const size_t num_chunks = (n + grain - 1) / grain;
  AT_CHECK_MSG(num_chunks <= UINT32_MAX, "parallel region too large");
  const size_t slots = std::min(num_threads, num_chunks);

  st.items.Increment(n);
  st.chunks.Increment(num_chunks);

  if (tl_in_region || slots <= 1 ||
      forked_.load(std::memory_order_relaxed)) {
    st.serial_invocations.Increment();
    RunSerial(n, grain, body);
    return;
  }

  EnsureWorkers(slots - 1);

  JobState job;
  job.body = &body;
  job.n = n;
  job.grain = grain;
  job.num_chunks = num_chunks;
  job.slots = slots;
  job.ranges = std::vector<JobState::Range>(slots);
  for (size_t s = 0; s < slots; ++s) {
    uint32_t lo = static_cast<uint32_t>(num_chunks * s / slots);
    uint32_t hi = static_cast<uint32_t>(num_chunks * (s + 1) / slots);
    job.ranges[s].bits.store(PackRange(lo, hi), std::memory_order_relaxed);
  }
  job.remaining.store(num_chunks, std::memory_order_relaxed);

  // One region at a time: concurrent external submitters queue here.
  MutexLock run_lk(&run_mu_);
  {
    MutexLock lk(&mu_);
    job_ = &job;
    ++epoch_;
  }
  wake_cv_.NotifyAll();

  tl_in_region = true;
  WorkOn(job, 0);
  tl_in_region = false;

  {
    MutexLock lk(&mu_);
    while (job.remaining.load(std::memory_order_acquire) != 0 ||
           job.active.load(std::memory_order_acquire) != 0) {
      done_cv_.Wait(mu_);
    }
    job_ = nullptr;
  }

  uint32_t joined =
      std::min<uint32_t>(job.tickets.load(std::memory_order_relaxed),
                         static_cast<uint32_t>(slots));
  st.participants.Increment(joined);
  st.slots_offered.Increment(slots);
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_epoch = 0;
  mu_.Lock();
  for (;;) {
    while (!stop_ && (epoch_ == seen_epoch || job_ == nullptr)) {
      wake_cv_.Wait(mu_);
    }
    if (stop_) {
      mu_.Unlock();
      return;
    }
    seen_epoch = epoch_;
    JobState* job = job_;
    uint32_t ticket = job->tickets.fetch_add(1, std::memory_order_relaxed);
    if (ticket >= job->slots) continue;  // region already fully staffed
    job->active.fetch_add(1, std::memory_order_relaxed);
    mu_.Unlock();

    tl_in_region = true;
    WorkOn(*job, ticket);
    tl_in_region = false;

    mu_.Lock();
    job->active.fetch_sub(1, std::memory_order_release);
    done_cv_.NotifyAll();
  }
}

void ThreadPool::WorkOn(JobState& job, size_t slot) {
  const size_t n = job.n;
  const size_t grain = job.grain;
  uint64_t local_steals = 0;

  auto exec = [&](uint32_t chunk) {
    size_t begin = static_cast<size_t>(chunk) * grain;
    (*job.body)(begin, std::min(n, begin + grain));
    job.remaining.fetch_sub(1, std::memory_order_acq_rel);
  };

  for (;;) {
    // Drain the front of our own range.
    uint64_t bits = job.ranges[slot].bits.load(std::memory_order_acquire);
    while (RangeLo(bits) < RangeHi(bits)) {
      if (job.ranges[slot].bits.compare_exchange_weak(
              bits, PackRange(RangeLo(bits) + 1, RangeHi(bits)),
              std::memory_order_acq_rel, std::memory_order_acquire)) {
        uint32_t chunk = RangeLo(bits);
        exec(chunk);
        bits = job.ranges[slot].bits.load(std::memory_order_acquire);
      }
    }
    if (job.remaining.load(std::memory_order_acquire) == 0) break;

    // Steal one chunk from the back of the first non-empty victim.
    bool stole = false;
    for (size_t k = 1; k < job.slots && !stole; ++k) {
      size_t victim = (slot + k) % job.slots;
      uint64_t vb = job.ranges[victim].bits.load(std::memory_order_acquire);
      while (RangeLo(vb) < RangeHi(vb)) {
        if (job.ranges[victim].bits.compare_exchange_weak(
                vb, PackRange(RangeLo(vb), RangeHi(vb) - 1),
                std::memory_order_acq_rel, std::memory_order_acquire)) {
          ++local_steals;
          exec(RangeHi(vb) - 1);
          stole = true;
          break;
        }
      }
    }
    // No claimable work anywhere: remaining chunks (if any) are already
    // being executed by other participants.
    if (!stole) break;
  }

  if (local_steals != 0) {
    PoolCounters().steals.Increment(local_steals);
  }
}

void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 const Options& opt) {
  ThreadPool::Global().RunChunked(
      n, opt.grain, opt.num_threads, [&fn](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) fn(i);
      });
}

}  // namespace autotest::util::parallel
