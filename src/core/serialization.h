#ifndef AUTOTEST_CORE_SERIALIZATION_H_
#define AUTOTEST_CORE_SERIALIZATION_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/sdc.h"
#include "typedet/eval_functions.h"
#include "util/status.h"

namespace autotest::core {

/// Persistence for learned rule sets: the offline stage runs once, and the
/// online stage loads the distilled rules (paper Figure 5's deployment
/// split).
///
/// Format: a line-oriented text file. Each rule line carries the stable
/// evaluation-function id plus the learned parameters and calibration
/// statistics. Rule files are valid against an EvalFunctionSet built the
/// same way as at save time (same corpus, options and seed) — embedding
/// centroids are corpus-derived, so the ids must match.
///
///   # autotest-sdc v1
///   rule <eval-id> <d_in> <d_out> <m> <conf> <fpr> <ct> <cnt> <ut> <unt>
///        <h> <p>
///
/// Fields are tab-separated; ids are escaped (\t, \n, \\).

/// Serializes rules to the text format.
std::string SerializeRules(const std::vector<Sdc>& rules);

/// Parses rules and resolves their evaluation functions against `evals`.
/// Rules whose eval id is unknown are skipped and counted in *unresolved
/// (if non-null) — a counted degradation, not an error.
///
/// Everything else about the input is treated as untrusted: errors carry
/// the 1-based line number and the offending field name. kInvalidArgument
/// for a missing or wrong-version header and for semantically invalid
/// parameters (non-finite values, d_in > d_out, m/conf/fpr outside [0,1],
/// negative contingency counts); kDataLoss for truncated or corrupt rule
/// lines.
[[nodiscard]] util::Result<std::vector<Sdc>> TryDeserializeRules(
    std::string_view text, const typedet::EvalFunctionSet& evals,
    size_t* unresolved = nullptr);

/// Loads rules from a file; kNotFound/kIoError for unreadable files, else
/// TryDeserializeRules diagnostics with the path as context.
[[nodiscard]] util::Result<std::vector<Sdc>> TryLoadRulesFromFile(
    const std::string& path, const typedet::EvalFunctionSet& evals,
    size_t* unresolved = nullptr);

/// Atomically writes rules to `path`: serializes into `path` + ".tmp" and
/// renames over the target, so a failed save never leaves a truncated
/// rules.sdc behind. kIoError on any write/rename failure.
[[nodiscard]] util::Status TrySaveRulesToFile(const std::vector<Sdc>& rules,
                                              const std::string& path);

/// Finds an evaluation function by id; nullptr if absent. (Declared here
/// to keep EvalFunctionSet's surface minimal.)
const typedet::DomainEvalFunction* FindEvalById(
    const typedet::EvalFunctionSet& evals, std::string_view id);

}  // namespace autotest::core

#endif  // AUTOTEST_CORE_SERIALIZATION_H_
