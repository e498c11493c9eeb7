#ifndef AUTOTEST_SERVE_ADMISSION_H_
#define AUTOTEST_SERVE_ADMISSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <vector>

#include "util/circuit_breaker.h"
#include "util/mutex.h"
#include "util/retry.h"
#include "util/status.h"
#include "util/thread_annotations.h"

// Bounded admission queue between the acceptor and the worker pool
// (DESIGN.md §4h). Admission control is the whole point: TryPush never
// blocks and never grows past `depth` — when the queue is full the caller
// sheds the request with a structured RESOURCE_EXHAUSTED response instead
// of queueing unboundedly. Pop blocks workers until a job arrives or the
// queue is closed and empty.
//
// Per-tenant governance (DESIGN.md §4j) also lives here: TenantGovernor
// gates each parsed request on its tenant's token bucket *before* any
// predictor work is scheduled, and keys circuit breakers per
// (tenant, rule-set version) so repeat offenders are quarantined without
// touching other tenants. The global queue above stays the backstop for
// aggregate overload; the governor adds the per-tenant isolation layer
// in front of the expensive phases.

namespace autotest::serve {

/// One admitted connection, waiting for a worker.
struct AdmittedJob {
  int fd = -1;
  /// Clock reading at admission; the request's deadline anchors here so
  /// queue time counts against the budget.
  int64_t admitted_micros = 0;
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(size_t depth) : depth_(depth) {}

  /// Admits `job` unless the queue is at depth or admissions are closed.
  /// Returns false without blocking in either case — the caller sheds.
  [[nodiscard]] bool TryPush(AdmittedJob job) AT_EXCLUDES(mu_);

  /// Blocks until a job is available or the queue is closed and drained;
  /// nullopt means "no more work ever" (worker exits).
  std::optional<AdmittedJob> Pop() AT_EXCLUDES(mu_);

  /// Stops admissions (TryPush starts failing) but lets queued jobs be
  /// popped — the graceful half of drain.
  void CloseAdmissions() AT_EXCLUDES(mu_);

  /// Removes and returns every still-queued job (drain deadline passed;
  /// the caller sheds them). Also closes admissions.
  std::vector<AdmittedJob> DrainRemaining() AT_EXCLUDES(mu_);

  /// Wakes all Pop waiters permanently; combined with CloseAdmissions,
  /// workers exit once the queue is empty.
  void Shutdown() AT_EXCLUDES(mu_);

  size_t size() const AT_EXCLUDES(mu_);

 private:
  const size_t depth_;
  mutable util::Mutex mu_;
  util::CondVar cv_;
  std::queue<AdmittedJob> jobs_ AT_GUARDED_BY(mu_);
  bool closed_ AT_GUARDED_BY(mu_) = false;    // no new admissions
  bool shutdown_ AT_GUARDED_BY(mu_) = false;  // Pop nullopt once empty
};

/// One tenant's rate allowance: a token bucket holding at most `burst`
/// tokens, refilled at `rate_per_sec`. rate 0 with burst B means "B
/// requests until the quota file is reloaded" (a hard allowance).
struct TenantQuota {
  double rate_per_sec = 0.0;
  double burst = 0.0;
};

/// Deterministic token bucket over caller-provided clock readings (the
/// governor passes its injected util::Clock's NowMicros, so tests refill
/// in virtual time).
class TokenBucket {
 public:
  TokenBucket(const TenantQuota& quota, int64_t now_micros);

  /// Takes one token if available after refilling to `now_micros`.
  [[nodiscard]] bool TryTake(int64_t now_micros) AT_EXCLUDES(mu_);

 private:
  void RefillLocked(int64_t now_micros) AT_REQUIRES(mu_);

  const double rate_per_sec_;
  const double burst_;
  util::Mutex mu_;
  double tokens_ AT_GUARDED_BY(mu_);
  int64_t last_refill_micros_ AT_GUARDED_BY(mu_);
};

/// Parses a quota file (DESIGN.md §4j):
///
///   autotest.quotas.v1
///   # comment / blank lines ignored
///   <tenant> <rate_per_sec> <burst>
///
/// `<tenant>` is a wire-valid tenant id or the keyword `default`, which
/// applies to every tenant without an explicit row (including the
/// anonymous empty tenant). kInvalidArgument with line diagnostics on a
/// bad header, malformed row, invalid tenant, negative rate, burst < 1,
/// or duplicate tenant.
[[nodiscard]] util::Result<std::map<std::string, TenantQuota, std::less<>>>
TryParseQuotaConfig(std::string_view text);

/// Per-tenant admission gate + breaker registry for the serve tier.
/// Thread-safe; one instance is shared by every worker. With no quota
/// table loaded every tenant is admitted (breakers still apply).
class TenantGovernor {
 public:
  /// `clock` must be non-null and outlive the governor.
  TenantGovernor(const util::CircuitBreakerOptions& breaker_options,
                 util::Clock* clock);

  TenantGovernor(const TenantGovernor&) = delete;
  TenantGovernor& operator=(const TenantGovernor&) = delete;

  /// Loads (or hot-reloads) the quota table from `path`, remembering the
  /// path for TryReloadQuotas. Load-validate-then-swap: a malformed file
  /// is a structured error and the previous table keeps serving.
  /// Existing buckets are rebuilt lazily against the new table.
  [[nodiscard]] util::Status TryLoadQuotas(const std::string& path)
      AT_EXCLUDES(reload_mu_);

  /// Re-loads from the last TryLoadQuotas path; Ok no-op when no quota
  /// file was ever configured. Called alongside the rule-set reload.
  [[nodiscard]] util::Status TryReloadQuotas() AT_EXCLUDES(reload_mu_);

  /// True when `tenant`'s bucket has a token (or no quota applies to
  /// it). A denial counts serve.tenant_rejections; the caller sheds with
  /// `reason=quota`.
  [[nodiscard]] bool TryAdmit(std::string_view tenant) AT_EXCLUDES(mu_);

  /// The circuit breaker for (tenant, rule-set version). The reference
  /// stays valid for the governor's lifetime.
  util::CircuitBreaker& BreakerFor(std::string_view tenant,
                                   uint64_t ruleset_version);

 private:
  /// The bucket for `tenant`, created on first use from its quota row
  /// (explicit row, else `default` row, else nullptr = unlimited).
  /// Shared-ptr so a hot-reload can swap the table while a concurrent
  /// TryAdmit still holds its bucket.
  std::shared_ptr<TokenBucket> BucketFor(std::string_view tenant)
      AT_EXCLUDES(mu_);

  util::Clock* const clock_;
  util::CircuitBreakerMap breakers_;

  /// Serializes reloads; never held on the admit path. Ordered before
  /// mu_ (the swap takes both).
  util::Mutex reload_mu_ AT_ACQUIRED_BEFORE(mu_);
  std::string quota_path_ AT_GUARDED_BY(reload_mu_);

  util::Mutex mu_;
  std::map<std::string, TenantQuota, std::less<>> quotas_
      AT_GUARDED_BY(mu_);
  std::map<std::string, std::shared_ptr<TokenBucket>, std::less<>>
      buckets_ AT_GUARDED_BY(mu_);
};

}  // namespace autotest::serve

#endif  // AUTOTEST_SERVE_ADMISSION_H_
