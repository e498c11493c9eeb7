#include "serve/admission.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "serve/wire.h"
#include "util/check.h"
#include "util/metrics.h"

namespace autotest::serve {

using util::MutexLock;
using util::Result;
using util::Status;

bool AdmissionQueue::TryPush(AdmittedJob job) {
  {
    MutexLock lock(&mu_);
    if (closed_ || jobs_.size() >= depth_) return false;
    jobs_.push(job);
  }
  cv_.NotifyOne();
  return true;
}

std::optional<AdmittedJob> AdmissionQueue::Pop() {
  MutexLock lock(&mu_);
  while (jobs_.empty() && !shutdown_) cv_.Wait(mu_);
  if (jobs_.empty()) return std::nullopt;
  AdmittedJob job = jobs_.front();
  jobs_.pop();
  return job;
}

void AdmissionQueue::CloseAdmissions() {
  MutexLock lock(&mu_);
  closed_ = true;
}

std::vector<AdmittedJob> AdmissionQueue::DrainRemaining() {
  std::vector<AdmittedJob> out;
  {
    MutexLock lock(&mu_);
    closed_ = true;
    while (!jobs_.empty()) {
      out.push_back(jobs_.front());
      jobs_.pop();
    }
  }
  return out;
}

void AdmissionQueue::Shutdown() {
  {
    MutexLock lock(&mu_);
    closed_ = true;
    shutdown_ = true;
  }
  cv_.NotifyAll();
}

size_t AdmissionQueue::size() const {
  MutexLock lock(&mu_);
  return jobs_.size();
}

// ---------------------------------------------------------------------------
// Token buckets and the tenant governor (DESIGN.md §4j).
// ---------------------------------------------------------------------------

TokenBucket::TokenBucket(const TenantQuota& quota, int64_t now_micros)
    : rate_per_sec_(quota.rate_per_sec),
      burst_(quota.burst),
      tokens_(quota.burst),
      last_refill_micros_(now_micros) {}

void TokenBucket::RefillLocked(int64_t now_micros) {
  if (now_micros <= last_refill_micros_) return;
  const double elapsed_sec =
      static_cast<double>(now_micros - last_refill_micros_) / 1e6;
  tokens_ = std::min(burst_, tokens_ + elapsed_sec * rate_per_sec_);
  last_refill_micros_ = now_micros;
}

bool TokenBucket::TryTake(int64_t now_micros) {
  MutexLock lock(&mu_);
  RefillLocked(now_micros);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

Result<std::map<std::string, TenantQuota, std::less<>>> TryParseQuotaConfig(
    std::string_view text) {
  constexpr std::string_view kQuotaMagic = "autotest.quotas.v1";
  std::map<std::string, TenantQuota, std::less<>> quotas;
  size_t line_no = 0;
  bool saw_header = false;
  std::string_view rest = text;
  while (!rest.empty()) {
    size_t nl = rest.find('\n');
    std::string_view line =
        nl == std::string_view::npos ? rest : rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view()
                                        : rest.substr(nl + 1);
    ++line_no;
    // Trim trailing \r so CRLF files parse.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ' ||
                             line.back() == '\t')) {
      line.remove_suffix(1);
    }
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    if (!saw_header) {
      if (line != kQuotaMagic) {
        return util::InvalidArgumentError(
            "quota file header is not '" + std::string(kQuotaMagic) +
            "' (line " + std::to_string(line_no) + ")");
      }
      saw_header = true;
      continue;
    }
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields{std::string(line)};
    std::string tenant, rate_str, burst_str, extra;
    fields >> tenant >> rate_str >> burst_str;
    const bool trailing = static_cast<bool>(fields >> extra);
    if (burst_str.empty() || trailing) {
      return util::InvalidArgumentError(
          "quota row wants '<tenant> <rate_per_sec> <burst>' (line " +
          std::to_string(line_no) + ")");
    }
    if (tenant != "default" && !IsValidTenant(tenant)) {
      return util::InvalidArgumentError(
          "quota row tenant '" + tenant + "' is not a valid tenant id or "
          "'default' (line " + std::to_string(line_no) + ")");
    }
    char* endp = nullptr;
    TenantQuota quota;
    quota.rate_per_sec = std::strtod(rate_str.c_str(), &endp);
    if (endp != rate_str.c_str() + rate_str.size() ||
        !(quota.rate_per_sec >= 0.0)) {
      return util::InvalidArgumentError(
          "quota row rate '" + rate_str + "' wants a number >= 0 (line " +
          std::to_string(line_no) + ")");
    }
    quota.burst = std::strtod(burst_str.c_str(), &endp);
    if (endp != burst_str.c_str() + burst_str.size() ||
        !(quota.burst >= 1.0)) {
      return util::InvalidArgumentError(
          "quota row burst '" + burst_str + "' wants a number >= 1 (line " +
          std::to_string(line_no) + ")");
    }
    if (!quotas.emplace(std::move(tenant), quota).second) {
      return util::InvalidArgumentError("duplicate quota row (line " +
                                        std::to_string(line_no) + ")");
    }
  }
  if (!saw_header) {
    return util::InvalidArgumentError("quota file is empty (no '" +
                                      std::string(kQuotaMagic) +
                                      "' header)");
  }
  return quotas;
}

TenantGovernor::TenantGovernor(
    const util::CircuitBreakerOptions& breaker_options, util::Clock* clock)
    : clock_(clock), breakers_(breaker_options, clock) {
  AT_CHECK_MSG(clock_ != nullptr, "TenantGovernor needs a clock");
}

Status TenantGovernor::TryLoadQuotas(const std::string& path) {
  static metrics::Counter& quota_reloads =
      metrics::Registry::Global().GetCounter(
          metrics::kMServeTenantQuotaReloads);

  // Same discipline as SnapshotStore::TryReload: reload_mu_ serializes
  // reloads only and is never taken on the admit path, so blocking file
  // I/O under it cannot stall a worker (TryAdmit only touches mu_).
  MutexLock reload_lock(&reload_mu_);
  // at_lint: disable(R8) reload-only lock, never on the request path
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::NotFoundError("cannot open quota file " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return util::IoError("cannot read quota file " + path);
  }
  auto parsed = TryParseQuotaConfig(buf.str());
  if (!parsed.ok()) {
    return Status(parsed.status())
        .WithContext("loading tenant quotas from " + path);
  }
  quota_path_ = path;
  {
    MutexLock lock(&mu_);
    quotas_ = std::move(*parsed);
    // Rebuild buckets lazily against the new table; in-flight TryAdmit
    // calls finish against their shared_ptr copy of the old bucket.
    buckets_.clear();
  }
  quota_reloads.Increment();
  return Status::Ok();
}

Status TenantGovernor::TryReloadQuotas() {
  std::string path;
  {
    MutexLock reload_lock(&reload_mu_);
    path = quota_path_;
  }
  if (path.empty()) return Status::Ok();
  return TryLoadQuotas(path);
}

std::shared_ptr<TokenBucket> TenantGovernor::BucketFor(
    std::string_view tenant) {
  // A client inventing tenant names must not grow the bucket map without
  // bound: explicit rows are bounded by the quota file, and once the map
  // is saturated, unlisted tenants share the `default` bucket.
  constexpr size_t kMaxTrackedTenants = 4096;
  MutexLock lock(&mu_);
  auto bucket_it = buckets_.find(tenant);
  if (bucket_it != buckets_.end()) return bucket_it->second;

  auto quota_it = quotas_.find(tenant);
  if (quota_it == quotas_.end()) quota_it = quotas_.find("default");
  if (quota_it == quotas_.end()) return nullptr;  // unlimited

  std::string key(tenant);
  if (buckets_.size() >= kMaxTrackedTenants) {
    // Saturated: further tenants share the "default"-keyed bucket.
    key = "default";
    auto shared_it = buckets_.find(key);
    if (shared_it != buckets_.end()) return shared_it->second;
  }
  auto bucket =
      std::make_shared<TokenBucket>(quota_it->second, clock_->NowMicros());
  buckets_.emplace(std::move(key), bucket);
  return bucket;
}

bool TenantGovernor::TryAdmit(std::string_view tenant) {
  static metrics::Counter& tenant_rejections =
      metrics::Registry::Global().GetCounter(
          metrics::kMServeTenantRejections);
  std::shared_ptr<TokenBucket> bucket = BucketFor(tenant);
  if (bucket == nullptr) return true;  // no quota applies
  if (bucket->TryTake(clock_->NowMicros())) return true;
  tenant_rejections.Increment();
  return false;
}

util::CircuitBreaker& TenantGovernor::BreakerFor(std::string_view tenant,
                                                 uint64_t ruleset_version) {
  std::string key = std::string(tenant) + "\x1f" +
                    std::to_string(ruleset_version);
  return breakers_.For(key);
}

}  // namespace autotest::serve
