#ifndef AUTOTEST_SERVE_SNAPSHOT_H_
#define AUTOTEST_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "core/sdc.h"
#include "typedet/eval_functions.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

// Versioned, immutable rule-set snapshots with load-validate-then-swap
// hot-reload (DESIGN.md §4h).
//
// A request takes one shared_ptr<const RuleSetSnapshot> at admission and
// keeps it for its whole lifetime, so a reload mid-request can never mix
// rule versions inside one response: the old snapshot stays alive (and
// serving) until its last in-flight request drops the reference. A reload
// that fails validation — unreadable file, corrupt bytes (the `rules.*`
// failpoints exercise both), or a file with no servable rules — leaves the
// current snapshot untouched and stamps `serve.reload_failures`.

namespace autotest::serve {

/// One immutable, versioned rule set plus its ready-to-serve predictor.
class RuleSetSnapshot {
 public:
  RuleSetSnapshot(uint64_t version, std::string source,
                  std::vector<core::Sdc> rules, size_t unresolved)
      : version_(version),
        source_(std::move(source)),
        predictor_(std::move(rules)),
        unresolved_(unresolved) {}

  uint64_t version() const { return version_; }
  const std::string& source() const { return source_; }
  const core::SdcPredictor& predictor() const { return predictor_; }
  /// Rules whose eval id did not resolve against the serving function set.
  size_t unresolved() const { return unresolved_; }

 private:
  uint64_t version_;
  std::string source_;
  core::SdcPredictor predictor_;
  size_t unresolved_;
};

/// Owns the current snapshot and the reload path. Get() is a mutex-guarded
/// shared_ptr copy (cheap, TSan-clean, portable — no reliance on
/// atomic<shared_ptr> availability); TryReload() builds and validates the
/// candidate completely before the swap, so readers only ever observe
/// fully-constructed snapshots.
class SnapshotStore {
 public:
  /// `evals` must outlive the store (rule files resolve eval ids against
  /// it; the daemon rebuilds it from the rule file's recipe corpus).
  SnapshotStore(const typedet::EvalFunctionSet* evals,
                std::string rules_path);

  /// Loads `rules_path`, validates, and atomically swaps the new snapshot
  /// in. On any failure the previous snapshot keeps serving. The
  /// `serve.reload` failpoint fires at entry; `rules.open`/`rules.parse`
  /// fire inside the loader. Increments serve.reloads / reload_failures.
  [[nodiscard]] util::Status TryReload() AT_EXCLUDES(reload_mu_, mu_);

  /// The current snapshot; nullptr until the first successful TryReload.
  std::shared_ptr<const RuleSetSnapshot> Get() const AT_EXCLUDES(mu_);

  /// Version of the current snapshot (0 = none loaded yet).
  uint64_t version() const AT_EXCLUDES(mu_);

  const std::string& rules_path() const { return rules_path_; }

 private:
  const typedet::EvalFunctionSet* evals_;
  std::string rules_path_;

  /// Serializes TryReload calls; always taken before mu_ (R9 edge).
  util::Mutex reload_mu_ AT_ACQUIRED_BEFORE(mu_);
  mutable util::Mutex mu_;
  std::shared_ptr<const RuleSetSnapshot> current_ AT_GUARDED_BY(mu_);
  uint64_t next_version_ AT_GUARDED_BY(mu_) = 1;
};

}  // namespace autotest::serve

#endif  // AUTOTEST_SERVE_SNAPSHOT_H_
