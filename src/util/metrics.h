#ifndef AUTOTEST_UTIL_METRICS_H_
#define AUTOTEST_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

// Uniform metrics registry (DESIGN.md §4f).
//
// Every degradation and performance signal in the tree — parallel-runtime
// task/steal counts, failpoint evaluations and fires, retry attempts,
// shard-load outcomes, predictor/trainer skip counts and phase timers —
// is registered here under one `<component>.<name>` namespace (mirroring
// the failpoint convention) so serving deployments scrape one document
// instead of grepping stderr and calling five bespoke accessors.
//
// Kinds:
//   Counter    monotonically increasing uint64 (relaxed atomic adds)
//   Gauge      last-written double (relaxed store; Add is a CAS loop)
//   Histogram  fixed upper-bound buckets + count + sum (relaxed adds)
//
// Atomicity contract: increments on the hot path are single relaxed
// atomic RMWs — no locks, no fences. Snapshot() takes relaxed loads, so
// it is a per-metric-consistent, not cross-metric-consistent, picture:
// each value is some value the metric actually held, but two metrics may
// be read at slightly different instants. That is the right trade for
// diagnostics.
//
// Registration is idempotent and permanent: GetCounter("a.b") always
// returns the same object, references stay valid for process lifetime,
// and re-registering under a different kind (or different histogram
// buckets) is a programmer error that AT_CHECK-fails. Components cache
// the returned reference so steady-state cost is the increment alone.
//
// Naming: two or more dot-separated segments of [a-z0-9_], first char of
// each segment a letter — `parallel.steals`, `failpoint.csv.open.fires`.
// The canonical list of statically named metrics is kAllMetrics below;
// at_lint rule R6 cross-checks registration literals against it both
// ways, exactly like R3 does for failpoints. Dynamically derived families
// (per-failpoint `failpoint.<site>.evals|fires`, per-bench `bench.*`)
// are documented as patterns in DESIGN.md §4f instead.
//
// Snapshot() is deterministically ordered (lexicographic by name), so
// text/JSON dumps are byte-stable for equal counter values and can be
// diffed or gated on in CI (tools/run_bench_ci.sh consumes the same JSON
// shape benchmarks emit via benchx::BenchMetrics).

namespace autotest::metrics {

// ---------------------------------------------------------------------------
// Canonical metric names. Keep in sync with kAllMetrics; at_lint rule R6
// checks registration literals against this catalogue both directions.
// ---------------------------------------------------------------------------

inline constexpr std::string_view kMParallelInvocations =
    "parallel.invocations";
inline constexpr std::string_view kMParallelSerialInvocations =
    "parallel.serial_invocations";
inline constexpr std::string_view kMParallelItems = "parallel.items";
inline constexpr std::string_view kMParallelChunks = "parallel.chunks";
inline constexpr std::string_view kMParallelSteals = "parallel.steals";
inline constexpr std::string_view kMParallelParticipants =
    "parallel.participants";
inline constexpr std::string_view kMParallelSlotsOffered =
    "parallel.slots_offered";
inline constexpr std::string_view kMRetryAttempts = "retry.attempts";
inline constexpr std::string_view kMRetryRetries = "retry.retries";
inline constexpr std::string_view kMRetryGiveups = "retry.giveups";
inline constexpr std::string_view kMShardLoads = "shard.loads";
inline constexpr std::string_view kMShardLoaded = "shard.loaded";
inline constexpr std::string_view kMShardLost = "shard.lost";
inline constexpr std::string_view kMShardRetries = "shard.retries";
inline constexpr std::string_view kMShardDegradedLoads =
    "shard.degraded_loads";
inline constexpr std::string_view kMShardAttempts = "shard.attempts";
inline constexpr std::string_view kMPredictorRulesSkipped =
    "predictor.rules_skipped";
inline constexpr std::string_view kMPredictorColumnsChecked =
    "predictor.columns_checked";
inline constexpr std::string_view kMPredictorDetections =
    "predictor.detections";
inline constexpr std::string_view kMPredictorMemoHits =
    "predictor.memo_hits";
inline constexpr std::string_view kMPredictorMemoMisses =
    "predictor.memo_misses";
inline constexpr std::string_view kMPredictorMemoBytes =
    "predictor.memo_bytes";
inline constexpr std::string_view kMPredictorMemoClears =
    "predictor.memo_clears";
inline constexpr std::string_view kMTrainerEvalsSkipped =
    "trainer.evals_skipped";
inline constexpr std::string_view kMTrainerCandidatesEnumerated =
    "trainer.candidates_enumerated";
inline constexpr std::string_view kMTrainerCandidatesPruned =
    "trainer.candidates_pruned";
inline constexpr std::string_view kMTrainerCandidatesRejected =
    "trainer.candidates_rejected";
inline constexpr std::string_view kMTrainerCandidateGenSeconds =
    "trainer.candidate_gen_seconds";
inline constexpr std::string_view kMTrainerSyntheticSeconds =
    "trainer.synthetic_seconds";
inline constexpr std::string_view kMTrainerPoolValues =
    "trainer.pool_values";
inline constexpr std::string_view kMTrainerPoolArenaBytes =
    "trainer.pool_arena_bytes";
inline constexpr std::string_view kMRowCacheHits = "row_cache.hits";
inline constexpr std::string_view kMRowCacheMisses = "row_cache.misses";
inline constexpr std::string_view kMRowCacheBytes = "row_cache.bytes";
inline constexpr std::string_view kMRowCacheClears = "row_cache.clears";
inline constexpr std::string_view kMDatagenShardsGenerated =
    "datagen.shards_generated";
inline constexpr std::string_view kMDatagenColumnsGenerated =
    "datagen.columns_generated";
inline constexpr std::string_view kMServeConnections = "serve.connections";
inline constexpr std::string_view kMServeRequests = "serve.requests";
inline constexpr std::string_view kMServeRequestsOk = "serve.requests_ok";
inline constexpr std::string_view kMServeRequestsError =
    "serve.requests_error";
inline constexpr std::string_view kMServeRequestsShed =
    "serve.requests_shed";
inline constexpr std::string_view kMServeDrainShed = "serve.drain_shed";
inline constexpr std::string_view kMServeDeadlineExpirations =
    "serve.deadline_expirations";
inline constexpr std::string_view kMServeAcceptErrors =
    "serve.accept_errors";
inline constexpr std::string_view kMServeReadErrors = "serve.read_errors";
inline constexpr std::string_view kMServeReloads = "serve.reloads";
inline constexpr std::string_view kMServeReloadFailures =
    "serve.reload_failures";
inline constexpr std::string_view kMServeRequestSeconds =
    "serve.request_seconds";
inline constexpr std::string_view kMServeBudgetCharges =
    "serve.budget_charges";
inline constexpr std::string_view kMServeBudgetRejections =
    "serve.budget_rejections";
inline constexpr std::string_view kMServeBreakerOpenTotal =
    "serve.breaker_open_total";
inline constexpr std::string_view kMServeBreakerHalfOpenTotal =
    "serve.breaker_half_open_total";
inline constexpr std::string_view kMServeBreakerClosedTotal =
    "serve.breaker_closed_total";
inline constexpr std::string_view kMServeBreakerRejections =
    "serve.breaker_rejections";
inline constexpr std::string_view kMServeTenantRejections =
    "serve.tenant_rejections";
inline constexpr std::string_view kMServeTenantQuotaReloads =
    "serve.tenant_quota_reloads";

/// Every statically named metric compiled into the binary. The per-site
/// failpoint family (`failpoint.<site>.evals` / `.fires`) is derived from
/// util::kAllFailpoints at runtime and is documented in DESIGN.md §4f.
inline constexpr std::string_view kAllMetrics[] = {
    kMParallelInvocations,
    kMParallelSerialInvocations,
    kMParallelItems,
    kMParallelChunks,
    kMParallelSteals,
    kMParallelParticipants,
    kMParallelSlotsOffered,
    kMRetryAttempts,
    kMRetryRetries,
    kMRetryGiveups,
    kMShardLoads,
    kMShardLoaded,
    kMShardLost,
    kMShardRetries,
    kMShardDegradedLoads,
    kMShardAttempts,
    kMPredictorRulesSkipped,
    kMPredictorColumnsChecked,
    kMPredictorDetections,
    kMPredictorMemoHits,
    kMPredictorMemoMisses,
    kMPredictorMemoBytes,
    kMPredictorMemoClears,
    kMTrainerEvalsSkipped,
    kMTrainerCandidatesEnumerated,
    kMTrainerCandidatesPruned,
    kMTrainerCandidatesRejected,
    kMTrainerCandidateGenSeconds,
    kMTrainerSyntheticSeconds,
    kMTrainerPoolValues,
    kMTrainerPoolArenaBytes,
    kMRowCacheHits,
    kMRowCacheMisses,
    kMRowCacheBytes,
    kMRowCacheClears,
    kMDatagenShardsGenerated,
    kMDatagenColumnsGenerated,
    kMServeConnections,
    kMServeRequests,
    kMServeRequestsOk,
    kMServeRequestsError,
    kMServeRequestsShed,
    kMServeDrainShed,
    kMServeDeadlineExpirations,
    kMServeAcceptErrors,
    kMServeReadErrors,
    kMServeReloads,
    kMServeReloadFailures,
    kMServeRequestSeconds,
    kMServeBudgetCharges,
    kMServeBudgetRejections,
    kMServeBreakerOpenTotal,
    kMServeBreakerHalfOpenTotal,
    kMServeBreakerClosedTotal,
    kMServeBreakerRejections,
    kMServeTenantRejections,
    kMServeTenantQuotaReloads,
};

// ---------------------------------------------------------------------------
// Metric objects. Handed out by reference from the Registry; increments
// are lock-free relaxed atomics. Reset() exists for tests — production
// code only ever adds.
// ---------------------------------------------------------------------------

class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  /// Counts `v` into the first bucket whose upper bound is >= v (the
  /// overflow bucket otherwise) and folds it into count/sum.
  void Observe(double v);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts, bounds().size() + 1 entries (last = overflow).
  std::vector<uint64_t> BucketCounts() const;
  void Reset();

 private:
  friend class Registry;
  explicit Histogram(std::vector<double> bounds);

  std::vector<double> bounds_;  // ascending upper bounds
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// ---------------------------------------------------------------------------
// Snapshots and serialization. The serializers are free functions over
// plain values so benchmarks (benchx::BenchMetrics) can emit hand-built
// results in the exact same shape the registry dumps.
// ---------------------------------------------------------------------------

enum class MetricKind { kCounter, kGauge, kHistogram };

struct HistogramValue {
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;  // bounds.size() + 1, last = overflow
  uint64_t count = 0;
  double sum = 0.0;
};

struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter = 0;      // kCounter
  double gauge = 0.0;        // kGauge
  HistogramValue histogram;  // kHistogram
};

/// True for a well-formed metric name (see the naming contract above).
bool IsValidMetricName(std::string_view name);

/// JSON string-escaping used by the serializer ('"', '\\', control chars).
std::string JsonEscape(std::string_view s);

/// The shared JSON document shape:
///   {"schema":"autotest.metrics.v1","source":"...","metrics":[...]}
/// One metric object per line; non-finite doubles serialize as null so
/// the document is always valid JSON.
std::string FormatMetricsJson(const std::vector<MetricValue>& values,
                              std::string_view source);

// ---------------------------------------------------------------------------
// The process-wide registry.
// ---------------------------------------------------------------------------

class Registry {
 public:
  /// The process singleton.
  static Registry& Global();

  /// Idempotent lookup-or-create. AT_CHECK-fails on an invalid name or a
  /// kind mismatch with an earlier registration.
  Counter& GetCounter(std::string_view name) AT_EXCLUDES(mu_);
  Gauge& GetGauge(std::string_view name) AT_EXCLUDES(mu_);
  /// `bounds` must be non-empty and strictly ascending; a re-registration
  /// must pass identical bounds.
  Histogram& GetHistogram(std::string_view name,
                          const std::vector<double>& bounds)
      AT_EXCLUDES(mu_);

  bool IsRegistered(std::string_view name) const AT_EXCLUDES(mu_);

  /// Relaxed-load copies of every metric, ordered by name.
  std::vector<MetricValue> Snapshot() const AT_EXCLUDES(mu_);

  std::string FormatJson(std::string_view source) const;

  /// Zeroes every value but keeps all registrations (tests only;
  /// production never resets).
  void ResetValuesForTest() AT_EXCLUDES(mu_);

 private:
  Registry() = default;

  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable util::Mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_ AT_GUARDED_BY(mu_);
};

}  // namespace autotest::metrics

#endif  // AUTOTEST_UTIL_METRICS_H_
