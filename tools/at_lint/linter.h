#ifndef AUTOTEST_TOOLS_AT_LINT_LINTER_H_
#define AUTOTEST_TOOLS_AT_LINT_LINTER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

// at_lint — project-native static analysis for the Auto-Test tree.
//
// The PRs that introduced the deterministic parallel runtime (DESIGN.md
// §4a), the exception-free Status/Result<T> error layer and the named
// failpoints (§4c) established contracts that plain -Wall cannot enforce.
// at_lint walks the source tree at the token level (no libclang, no
// compilation) and reports violations as `file:line: [rule-id] message`,
// exiting 1 when anything fires:
//
//   R2  raw nondeterminism (rand, srand, std::random_device, std::time,
//       gettimeofday, any Clock::now) inside the deterministic subsystems
//       src/core, src/stats, src/lp, src/typedet, src/ml, src/embed,
//       src/pattern, src/datagen, src/util/{parallel,retry,metrics,
//       row_cache} and src/table/shard_loader
//   R3  failpoint-name literals unknown to the registry in
//       src/util/failpoint.h — and registered names no code ever uses
//   R4  AT_CHECK on untrusted-input paths already migrated to Status
//       (CSV parsing, rule serialization, recipe loading)
//   R6  metric-name literals in src/ unknown to the kAllMetrics catalogue
//       in src/util/metrics.h — plus catalogue constants missing from the
//       kAllMetrics array or registered but never used
//   R7  concurrency annotations in src/: raw std::mutex /
//       std::condition_variable members (use util::Mutex / util::CondVar),
//       and members written under a lock scope without AT_GUARDED_BY
//   R8  blocking calls (socket/file I/O, sleeps, Try* I/O entry points)
//       on a lock-holding path — a MutexLock scope or the body of an
//       AT_REQUIRES function
//   R9  program-wide lock acquisition graph from nested lock scopes and
//       AT_ACQUIRED_BEFORE/AFTER annotations must be acyclic; a cycle is
//       reported with the full offending chain
//
// R1 and R5 are retired: Status and Result<T> are class-level
// [[nodiscard]], every Try* function carries the attribute, and
// -Werror=unused-result rejects every discarded value.
//
// R7-R9 run on the declaration model in decl_model.h (DESIGN.md §4i) and
// are scoped to src/ paths; the util::Mutex wrapper itself is exempt.
//
// Suppressions (see DESIGN.md §4d for when they are acceptable):
//   // at_lint: disable(R2) <reason>        this line and the next
//   // at_lint: disable-file(R2) <reason>   the whole file
//
// A suppression that no longer suppresses anything is reported by the
// stale-suppression audit (`at_lint --audit-suppressions`) so tags do not
// outlive the violation they were written for.
//
// Matching is line-oriented over a comment-stripped, string-blanked view
// of each file, so tokens inside comments or literals never fire a rule
// (and rule R3 inspects the literals themselves separately).

namespace autotest::lint {

struct Violation {
  std::string file;
  size_t line = 0;       // 1-based
  std::string rule;      // "R2".."R9"
  std::string message;

  std::string ToString() const;
};

/// A `at_lint: disable(...)` tag that covered no would-be violation in
/// this run: the code it excused has been fixed or moved, and the tag is
/// now suppressing nothing (or worse, a future regression).
struct StaleSuppression {
  std::string file;
  size_t line = 0;       // 1-based line of the tag comment
  std::string rule;      // the rule named by the tag
  bool whole_file = false;

  std::string ToString() const;
};

/// One scanned file with the precomputed views the rules match against.
struct SourceFile {
  std::string path;
  /// Original text, split into lines (index 0 = line 1).
  std::vector<std::string> raw;
  /// Comments removed, string/char literal bodies blanked to spaces. Same
  /// shape as `raw` so column offsets line up.
  std::vector<std::string> code;
  /// String-literal bodies per line, in order of appearance.
  std::vector<std::vector<std::string>> literals;
};

/// Reads and preprocesses one file. Returns false (and leaves *out empty)
/// if the file cannot be read.
bool LoadSourceFile(const std::string& path, SourceFile* out);

/// Recursively collects .h/.hpp/.cc/.cpp files under each root (a root
/// that is itself a file is taken as-is). Directories named
/// `lint_fixtures` or `build*` are skipped during the walk — but an
/// explicitly given root is always scanned, which is how the self-test
/// lints its violation fixtures. The result is sorted for deterministic
/// output.
std::vector<std::string> CollectSources(const std::vector<std::string>& roots);

/// Runs every rule over the given files and returns the violations
/// sorted by (file, line, rule). When `stale` is non-null it receives the
/// suppression tags that covered nothing, sorted by (file, line, rule).
std::vector<Violation> LintFiles(const std::vector<SourceFile>& files,
                                 std::vector<StaleSuppression>* stale = nullptr);

/// Convenience: CollectSources + LoadSourceFile + LintFiles.
std::vector<Violation> LintTree(const std::vector<std::string>& roots,
                                std::vector<StaleSuppression>* stale = nullptr);

}  // namespace autotest::lint

#endif  // AUTOTEST_TOOLS_AT_LINT_LINTER_H_
