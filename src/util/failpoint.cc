#include "util/failpoint.h"

#include <cstdio>
#include <cstdlib>

#include "util/hashing.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace autotest::util {

namespace {

bool IsKnownFailpoint(std::string_view name) {
  for (std::string_view fp : kAllFailpoints) {
    if (fp == name) return true;
  }
  return false;
}

std::string KnownFailpointList() {
  std::string out;
  for (std::string_view fp : kAllFailpoints) {
    if (!out.empty()) out += ", ";
    out += fp;
  }
  return out;
}

/// Maps a `code=` flavor token to the StatusCode it injects; nullopt for
/// "default" (restore per-site codes).
bool ParseCodeFlavor(std::string_view value,
                     std::optional<StatusCode>* out) {
  if (value == "io") {
    *out = StatusCode::kIoError;
  } else if (value == "exhausted") {
    *out = StatusCode::kResourceExhausted;
  } else if (value == "dataloss") {
    *out = StatusCode::kDataLoss;
  } else if (value == "default") {
    *out = std::nullopt;
  } else {
    return false;
  }
  return true;
}

}  // namespace

FailpointRegistry::FailpointRegistry() {
  for (std::string_view fp : kAllFailpoints) {
    // Per-site counters live in the global metrics registry under the
    // dynamic family `failpoint.<site>.evals|fires` (DESIGN.md §4f), so
    // one JSON dump carries them next to every other component.
    Point point;
    point.evaluations = &metrics::Registry::Global().GetCounter(
        "failpoint." + std::string(fp) + ".evals");
    point.fires = &metrics::Registry::Global().GetCounter(
        "failpoint." + std::string(fp) + ".fires");
    points_.emplace(std::string(fp), point);
  }
  if (const char* env = std::getenv("AT_FAILPOINTS")) {
    // Environment arming is best-effort: a bad spec must not turn a
    // production binary into an aborting one, so report and continue
    // disarmed rather than AT_CHECK-ing here.
    Status st = Configure(env);
    if (!st.ok()) {
      std::fprintf(stderr, "warning: ignoring bad AT_FAILPOINTS: %s\n",
                   st.ToString().c_str());
    }
  }
}

FailpointRegistry& FailpointRegistry::Global() {
  static FailpointRegistry* registry = new FailpointRegistry();
  return *registry;
}

Status FailpointRegistry::Configure(std::string_view spec) {
  MutexLock lock(&mu_);
  for (const std::string& raw : Split(spec, ',')) {
    std::string_view entry = Trim(raw);
    if (entry.empty()) continue;

    size_t eq = entry.rfind('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == entry.size()) {
      return InvalidArgumentError("bad failpoint entry '" +
                                  std::string(entry) +
                                  "' (want name=on|off, name:p=<prob> or "
                                  "seed=<n>)");
    }
    std::string_view key = entry.substr(0, eq);
    std::string value(entry.substr(eq + 1));
    char* endp = nullptr;

    if (key == "seed") {
      uint64_t s = std::strtoull(value.c_str(), &endp, 10);
      if (endp == value.c_str() || *endp != '\0') {
        return InvalidArgumentError("bad failpoint seed '" + value + "'");
      }
      seed_ = s;
      continue;
    }

    if (key == "code") {
      if (!ParseCodeFlavor(value, &code_override_)) {
        return InvalidArgumentError(
            "bad failpoint code flavor '" + value +
            "' (want io, exhausted, dataloss or default)");
      }
      continue;
    }

    bool armed;
    double probability = 1.0;
    std::string_view name = key;
    if (EndsWith(key, ":p")) {
      name = key.substr(0, key.size() - 2);
      probability = std::strtod(value.c_str(), &endp);
      if (endp == value.c_str() || *endp != '\0' || probability < 0.0 ||
          probability > 1.0) {
        return InvalidArgumentError("bad failpoint probability '" + value +
                                    "' for '" + std::string(name) +
                                    "' (want a number in [0,1])");
      }
      armed = probability > 0.0;
    } else if (value == "on") {
      armed = true;
    } else if (value == "off") {
      armed = false;
    } else {
      return InvalidArgumentError("bad failpoint value '" + value +
                                  "' for '" + std::string(name) +
                                  "' (want on, off or :p=<prob>)");
    }

    if (name == "all") {
      for (auto& [fp, point] : points_) {
        (void)fp;
        point.armed = armed;
        point.probability = probability;
      }
    } else {
      auto it = points_.find(name);
      if (it == points_.end() || !IsKnownFailpoint(name)) {
        return InvalidArgumentError("unknown failpoint '" +
                                    std::string(name) + "' (known: " +
                                    KnownFailpointList() + ")");
      }
      it->second.armed = armed;
      it->second.probability = probability;
    }
  }
  any_armed_ = false;
  for (const auto& [fp, point] : points_) {
    (void)fp;
    if (point.armed) any_armed_ = true;
  }
  armed_flag_.store(any_armed_, std::memory_order_release);
  return Status::Ok();
}

void FailpointRegistry::Disarm() {
  MutexLock lock(&mu_);
  for (auto& [fp, point] : points_) {
    (void)fp;
    point.armed = false;
  }
  any_armed_ = false;
  armed_flag_.store(false, std::memory_order_release);
}

void FailpointRegistry::Reset() {
  MutexLock lock(&mu_);
  for (auto& [fp, point] : points_) {
    (void)fp;
    point.armed = false;
    point.probability = 1.0;
    point.evaluations->Reset();
    point.fires->Reset();
  }
  seed_ = 0;
  code_override_ = std::nullopt;
  any_armed_ = false;
  armed_flag_.store(false, std::memory_order_release);
}

std::optional<StatusCode> FailpointRegistry::EvalLocked(
    std::string_view name, uint64_t key, bool use_counter,
    StatusCode fallback) {
  auto it = points_.find(name);
  if (it == points_.end()) return std::nullopt;
  Point& point = it->second;
  // The pre-increment value is the decision-stream index, exactly as the
  // plain uint64 counter behaved before the metrics migration.
  uint64_t k = point.evaluations->value();
  point.evaluations->Increment();
  if (!point.armed) return std::nullopt;
  // Deterministic decision stream: per-(seed, name, evaluation-index) for
  // serial sites, per-(seed, name, caller key) for parallel ones.
  uint64_t stream = use_counter ? k : SplitMix64(key) ^ 0x5bd1e995u;
  double roll =
      HashToUnitDouble(SplitMix64(seed_ ^ Fnv64Seeded(name, stream)));
  if (roll >= point.probability) return std::nullopt;
  point.fires->Increment();
  return code_override_.value_or(fallback);
}

bool FailpointRegistry::ShouldFail(std::string_view name) {
  // The fallback is irrelevant for the boolean answer.
  return ShouldFailWithCode(name, StatusCode::kInternal).has_value();
}

std::optional<StatusCode> FailpointRegistry::ShouldFailWithCode(
    std::string_view name, StatusCode fallback) {
  if (!armed_flag_.load(std::memory_order_acquire)) return std::nullopt;
  MutexLock lock(&mu_);
  return EvalLocked(name, 0, /*use_counter=*/true, fallback);
}

std::optional<StatusCode> FailpointRegistry::ShouldFailKeyed(
    std::string_view name, uint64_t key, StatusCode fallback) {
  if (!armed_flag_.load(std::memory_order_acquire)) return std::nullopt;
  MutexLock lock(&mu_);
  return EvalLocked(name, key, /*use_counter=*/false, fallback);
}

uint64_t FailpointRegistry::evaluations(std::string_view name) const {
  MutexLock lock(&mu_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.evaluations->value();
}

uint64_t FailpointRegistry::fires(std::string_view name) const {
  MutexLock lock(&mu_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.fires->value();
}

Status InjectedFault(StatusCode code, std::string_view name) {
  return Status(code,
                "injected fault at failpoint '" + std::string(name) + "'");
}

}  // namespace autotest::util
