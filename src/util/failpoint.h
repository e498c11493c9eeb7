#ifndef AUTOTEST_UTIL_FAILPOINT_H_
#define AUTOTEST_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

// Fault-injection framework for the load/serve path. Code at an injection
// site asks `FailpointFires("rules.parse")`; when the failpoint is armed the
// site returns a structured Status instead of doing its work, so tests (and
// soak runs) can prove the pipeline degrades gracefully under I/O failures,
// corrupt inputs and allocation pressure without mocking the filesystem.
//
// Arming:
//   - environment: AT_FAILPOINTS="rules.parse=on,csv.open:p=0.01,seed=7"
//   - CLI:         autotest --failpoints "all:p=0.01" ...
//   - tests:       FailpointRegistry::Global().Configure("rules.save=on")
//
// Spec grammar (comma-separated entries):
//   <name>=on | <name>=off | <name>:p=<prob> | all=on | all:p=<prob>
//   seed=<uint64>      (decision-stream seed; default 0)
//   code=io|exhausted|dataloss|default
//                      (StatusCode flavor every fired site injects;
//                       "default" restores each site's documented code,
//                       so specs without code= keep today's behavior.
//                       io -> kIoError and exhausted -> kResourceExhausted
//                       are transient and masked by the retry layer;
//                       dataloss -> kDataLoss is permanent and fails fast)
//
// Firing is deterministic: the decision for the k-th evaluation of failpoint
// `name` is a pure function of (seed, name, k), so a failing soak run is
// reproducible from its seed alone — no global RNG state involved. Sites
// evaluated from parallel workers (shard loads, trainer eval families) use
// the keyed variant, whose decision is a pure function of (seed, name,
// caller-chosen key) so it is independent of scheduling too.
//
// Naming scheme: `<component>.<operation>`, lower-case. The canonical list
// lives in kAllFailpoints below; sites must use these constants so the
// robustness suite can assert every registered failpoint fires somewhere.

namespace autotest::util {

inline constexpr std::string_view kFpCsvOpen = "csv.open";
inline constexpr std::string_view kFpCsvParse = "csv.parse";
inline constexpr std::string_view kFpRulesOpen = "rules.open";
inline constexpr std::string_view kFpRulesParse = "rules.parse";
inline constexpr std::string_view kFpRulesSave = "rules.save";
inline constexpr std::string_view kFpRecipeLoad = "recipe.load";
inline constexpr std::string_view kFpRecipeSave = "recipe.save";
inline constexpr std::string_view kFpTrainerEval = "trainer.eval";
inline constexpr std::string_view kFpPredictorColumn = "predictor.column";
inline constexpr std::string_view kFpShardRead = "shard.read";
inline constexpr std::string_view kFpShardRetry = "shard.retry";
inline constexpr std::string_view kFpServeAccept = "serve.accept";
inline constexpr std::string_view kFpServeRead = "serve.read";
inline constexpr std::string_view kFpServeReload = "serve.reload";
inline constexpr std::string_view kFpBudgetCharge = "budget.charge";
inline constexpr std::string_view kFpBreakerProbe = "breaker.probe";

/// Every failpoint compiled into the binary. Keep in sync with the
/// constants above; tests/robustness_test.cc walks this list.
inline constexpr std::string_view kAllFailpoints[] = {
    kFpCsvOpen,    kFpCsvParse,  kFpRulesOpen,
    kFpRulesParse, kFpRulesSave, kFpRecipeLoad,
    kFpRecipeSave, kFpTrainerEval, kFpPredictorColumn,
    kFpShardRead,  kFpShardRetry, kFpServeAccept,
    kFpServeRead,  kFpServeReload, kFpBudgetCharge,
    kFpBreakerProbe,
};

/// Process-wide registry. Thread-safe; the disarmed fast path is a single
/// relaxed atomic load, so injection sites are free in production.
class FailpointRegistry {
 public:
  /// The process singleton. Arms itself from AT_FAILPOINTS (if set) on
  /// first access.
  static FailpointRegistry& Global();

  /// Parses and applies a spec (see grammar above). Entries apply in
  /// order; later entries override earlier ones. Unknown failpoint names
  /// and malformed probabilities are kInvalidArgument.
  [[nodiscard]] Status Configure(std::string_view spec) AT_EXCLUDES(mu_);

  /// Disarms every failpoint; evaluation/fire counters are preserved.
  void Disarm() AT_EXCLUDES(mu_);

  /// Disarms and zeroes all counters (fresh-process state).
  void Reset() AT_EXCLUDES(mu_);

  /// True if the named failpoint should inject a fault at this evaluation.
  /// Counts the evaluation (and the fire, if any) either way.
  bool ShouldFail(std::string_view name) AT_EXCLUDES(mu_);

  /// Like ShouldFail, but returns the StatusCode the site should inject:
  /// the spec's `code=` flavor when set, else `fallback` (the site's
  /// documented default). nullopt when the failpoint does not fire.
  std::optional<StatusCode> ShouldFailWithCode(std::string_view name,
                                               StatusCode fallback)
      AT_EXCLUDES(mu_);

  /// Scheduling-independent variant for sites evaluated from parallel
  /// workers: the decision is a pure function of (seed, name, key) instead
  /// of the evaluation counter, so which shard/family fails is identical
  /// across thread counts and interleavings. Counters still advance.
  std::optional<StatusCode> ShouldFailKeyed(std::string_view name,
                                            uint64_t key,
                                            StatusCode fallback)
      AT_EXCLUDES(mu_);

  /// Counters, for tests and --failpoints diagnostics.
  uint64_t evaluations(std::string_view name) const AT_EXCLUDES(mu_);
  uint64_t fires(std::string_view name) const AT_EXCLUDES(mu_);

 private:
  FailpointRegistry();

  struct Point {
    bool armed = false;
    double probability = 1.0;
    // Registry-owned counters (`failpoint.<site>.evals|fires`), bound in
    // the constructor; updated under mu_ so the decision stream still
    // sees a serialized pre-increment evaluation index.
    metrics::Counter* evaluations = nullptr;
    metrics::Counter* fires = nullptr;
  };

  /// Decision + bookkeeping shared by the counter-keyed and caller-keyed
  /// evaluation paths. Must be called under mu_ (compile-checked).
  std::optional<StatusCode> EvalLocked(std::string_view name, uint64_t key,
                                       bool use_counter,
                                       StatusCode fallback)
      AT_REQUIRES(mu_);

  mutable Mutex mu_;
  bool any_armed_ AT_GUARDED_BY(mu_) = false;  // mirrors armed_flag_
  std::atomic<bool> armed_flag_{false};
  uint64_t seed_ AT_GUARDED_BY(mu_) = 0;
  // The `code=` flavor.
  std::optional<StatusCode> code_override_ AT_GUARDED_BY(mu_);
  std::map<std::string, Point, std::less<>> points_ AT_GUARDED_BY(mu_);
};

/// Injection-site helper: true when `name` should fail now.
inline bool FailpointFires(std::string_view name) {
  return FailpointRegistry::Global().ShouldFail(name);
}

/// Injection-site helper surfacing the selected StatusCode: the spec's
/// `code=` flavor when armed with one, else `fallback`.
inline std::optional<StatusCode> FailpointFiresCode(std::string_view name,
                                                    StatusCode fallback) {
  return FailpointRegistry::Global().ShouldFailWithCode(name, fallback);
}

/// Keyed injection-site helper for parallel call sites (see
/// ShouldFailKeyed).
inline std::optional<StatusCode> FailpointFiresKeyed(std::string_view name,
                                                     uint64_t key,
                                                     StatusCode fallback) {
  return FailpointRegistry::Global().ShouldFailKeyed(name, key, fallback);
}

/// Canonical error for a fired failpoint, e.g.
/// IO_ERROR: injected fault at failpoint 'rules.open'.
[[nodiscard]] Status InjectedFault(StatusCode code, std::string_view name);

}  // namespace autotest::util

#endif  // AUTOTEST_UTIL_FAILPOINT_H_
