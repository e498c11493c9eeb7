// at_lint — walks the given roots and reports violations of the project's
// Status / determinism / failpoint / metrics / concurrency contracts
// (rules R2-R9, see linter.h and DESIGN.md §4d/§4i).
//
//   at_lint src tools tests          lint the tree (exit 1 on violations)
//   at_lint --audit-suppressions ... also warn about stale disable tags
//   at_lint --list-rules             print the rule catalogue
//
// Output format, one violation per line on stdout:
//   file:line: [R2] raw nondeterminism: rand() inside a deterministic ...
//
// --audit-suppressions additionally prints one warning line per
// `at_lint: disable(...)` tag that covered no would-be violation this
// run. Warnings go to stdout but never affect the exit code: a stale tag
// is hygiene debt, not a broken contract.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "at_lint/linter.h"

namespace {

constexpr const char* kRuleCatalogue =
    "R2  raw nondeterminism (rand, srand, std::random_device, std::time,\n"
    "    gettimeofday, Clock::now) in src/core, src/stats, src/lp,\n"
    "    src/typedet, src/ml, src/embed, src/pattern, src/datagen,\n"
    "    src/util/{parallel,retry,metrics,row_cache},\n"
    "    src/table/shard_loader\n"
    "R3  failpoint-name literal absent from the registry in\n"
    "    src/util/failpoint.h, or a registered failpoint no code uses\n"
    "R4  AT_CHECK on an untrusted-input path (CSV, rule serialization,\n"
    "    recipe loading) that was migrated to Status\n"
    "R6  metric-name literal in src/ absent from the kAllMetrics\n"
    "    catalogue in src/util/metrics.h, a catalogue constant missing\n"
    "    from the kAllMetrics array, or a registered metric no code uses\n"
    "R7  raw std::mutex/std::condition_variable member in src/ (use\n"
    "    util::Mutex / util::CondVar), or a member written under a lock\n"
    "    scope without an AT_GUARDED_BY annotation\n"
    "R8  blocking call (socket/file I/O, sleeps, Try* I/O entry points)\n"
    "    inside a lock scope or an AT_REQUIRES function body\n"
    "R9  cycle in the program-wide lock acquisition graph built from\n"
    "    nested lock scopes and AT_ACQUIRED_BEFORE/AFTER annotations\n"
    "\n"
    "Suppress one line:   // at_lint: disable(R2) <reason>\n"
    "Suppress a file:     // at_lint: disable-file(R2) <reason>\n";

constexpr const char* kUsage =
    "usage: at_lint [--quiet] [--audit-suppressions] [--list-rules] "
    "<path>...\n";

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  bool quiet = false;
  bool audit = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list-rules") == 0) {
      std::fputs(kRuleCatalogue, stdout);
      return 0;
    }
    if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
      continue;
    }
    if (std::strcmp(argv[i], "--audit-suppressions") == 0) {
      audit = true;
      continue;
    }
    if (std::strcmp(argv[i], "--help") == 0) {
      std::fputs(kUsage, stderr);
      return 0;
    }
    roots.push_back(argv[i]);
  }
  if (roots.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  std::vector<autotest::lint::StaleSuppression> stale;
  std::vector<autotest::lint::Violation> violations =
      autotest::lint::LintTree(roots, audit ? &stale : nullptr);
  for (const auto& v : violations) {
    std::printf("%s\n", v.ToString().c_str());
  }
  for (const auto& s : stale) {
    std::printf("%s\n", s.ToString().c_str());
  }
  if (!quiet) {
    std::fprintf(stderr, "at_lint: %zu violation(s)\n", violations.size());
    if (audit) {
      std::fprintf(stderr, "at_lint: %zu stale suppression(s)\n",
                   stale.size());
    }
  }
  return violations.empty() ? 0 : 1;
}
