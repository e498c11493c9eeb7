#ifndef AUTOTEST_CORE_PREDICTOR_H_
#define AUTOTEST_CORE_PREDICTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/sdc.h"
#include "table/column.h"
#include "typedet/domain_eval.h"
#include "util/budget.h"
#include "util/retry.h"
#include "util/row_cache.h"
#include "util/status.h"

namespace autotest::core {

/// One predicted erroneous cell.
struct CellDetection {
  size_t row = 0;
  std::string value;
  /// Confidence of the most confident SDC that flagged the value (the
  /// paper assigns predictions the confidence of their best rule).
  double confidence = 0.0;
  /// Index (within the predictor's rule list) of that rule.
  size_t rule_index = 0;
  /// Human-readable explanation, e.g. the rule's Table-1-style rendering.
  std::string explanation;
};

/// Time budget for a deadline-aware prediction (the serving tier's
/// per-request deadline, DESIGN.md §4h). The deadline is an absolute
/// reading of `clock` (so queue time can count against it); a null clock
/// means "no deadline".
struct PredictBudget {
  util::Clock* clock = nullptr;
  int64_t deadline_micros = 0;
  /// Optional request-wide resource budget (DESIGN.md §4j). When set,
  /// each rule group charges its candidate evaluations (one cell-work
  /// unit per distinct value) before computing distances, so a column
  /// that would explode evaluation work fails with the budget's
  /// structured kResourceExhausted instead of burning the pool. Shared
  /// across the request's parallel column workers (charges are atomic).
  /// Not owned.
  util::ResourceBudget* resources = nullptr;
};

/// Outcome of a budgeted prediction. Expiry is a *partial result*, not an
/// error: detections found before the deadline are returned with
/// `expired` set, and the group counts record how much of the rule set
/// was actually consulted (degraded-provenance reporting).
struct BudgetedPrediction {
  std::vector<CellDetection> detections;
  bool expired = false;
  size_t groups_evaluated = 0;
  size_t groups_total = 0;
};

/// Online prediction (paper Figure 5, right side; Appendix B.2).
///
/// Rules are grouped by their evaluation function so each distinct value's
/// distance is computed once per function, and identical pre-conditions
/// within a group are checked once ("compressing" pre-condition checks).
/// The constructor compiles the rules into a plan (DESIGN.md §4k): each
/// group lists its distinct d_in values, its distinct (d_in, m)
/// pre-conditions and its rules, and every value gets one *within* bit per
/// d_in (`f(v) <= d_in`) and one *beyond* bit per rule (`f(v) > d_out`).
/// A per-predictor memo maps each value to its bits, so a value the
/// predictor has seen costs one lookup; only the misses are scored, and
/// they read the shared models' memos without inserting into them.
class SdcPredictor {
 public:
  /// `rules` reference evaluation functions owned elsewhere (the
  /// EvalFunctionSet must outlive the predictor).
  ///
  /// Rules that cannot be served — unresolved evaluation function (null
  /// eval, e.g. from a rule file loaded against a mismatched function set)
  /// or semantically invalid parameters (non-finite, d_in > d_out) — are
  /// dropped and counted in skipped_rules() instead of aborting: the online
  /// stage degrades to the rules it can trust (Figure 5's serve path must
  /// survive stale/corrupt rule files).
  explicit SdcPredictor(std::vector<Sdc> rules);
  SdcPredictor(SdcPredictor&&) noexcept;
  SdcPredictor& operator=(SdcPredictor&&) noexcept;
  ~SdcPredictor();

  /// Detects erroneous cells in a column. Returns one entry per offending
  /// row, each carrying the best-rule confidence and explanation.
  std::vector<CellDetection> Predict(const table::Column& column) const;

  /// Predict with an error channel and a budget. The budget is checked
  /// before each rule group (the natural phase boundary — one group = one
  /// evaluation function over all distinct values), so expiry yields the
  /// detections found so far instead of stalling; an empty budget (null
  /// clock, null resources) gates nothing. Fails under injected faults
  /// (failpoint "predictor.column", simulating per-column resource
  /// exhaustion) so callers can exercise column-level skip logic, and
  /// with the resource budget's structured kResourceExhausted when a rule
  /// group's candidate-evaluation charge is rejected (budget.resources
  /// set).
  [[nodiscard]] util::Result<BudgetedPrediction> TryPredict(
      const table::Column& column, const PredictBudget& budget) const;

  size_t num_rules() const { return rules_.size(); }
  /// Rules rejected at construction (unresolved or invalid).
  size_t skipped_rules() const { return skipped_rules_; }
  const std::vector<Sdc>& rules() const { return rules_; }

 private:
  struct Group;

  /// Shared implementation: evaluates rule groups until done or (when
  /// `budget` is non-null) the deadline passes. A rejected resource
  /// charge stops evaluation and lands in `resource_error` (when
  /// non-null); the caller turns it into a request-level error.
  BudgetedPrediction PredictInternal(const table::Column& column,
                                     const PredictBudget* budget,
                                     util::Status* resource_error) const;

  std::vector<Sdc> rules_;
  /// Each rule's Describe(), the explanation of its detections.
  std::vector<std::string> explanations_;
  std::vector<Group> groups_;
  /// How the misses are scored: group g's function is plan_.functions[g].
  typedet::ScoringPlan plan_;
  /// 32-bit words of comparison bits per value.
  size_t words_ = 0;
  size_t skipped_rules_ = 0;
  /// Each value's comparison bits (words_ words), for this plan only.
  std::unique_ptr<util::RowCache> memo_;
};

}  // namespace autotest::core

#endif  // AUTOTEST_CORE_PREDICTOR_H_
