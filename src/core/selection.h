#ifndef AUTOTEST_CORE_SELECTION_H_
#define AUTOTEST_CORE_SELECTION_H_

#include <cstdint>
#include <vector>

#include "core/trainer.h"
#include "lp/simplex.h"

namespace autotest::core {

/// Options for the CSS / FSS selection step (paper Section 5.3).
struct SelectionOptions {
  size_t size_budget = 500;  // B_size
  double fpr_budget = 0.1;   // B_FPR
  /// Fine-Select confidence-approximation tolerance; delta >= 1 makes FSS
  /// degenerate to CSS (paper Definition 5).
  double delta = 1e-3;
  uint64_t seed = 1234;
  /// LP-size guard: candidates beyond this are pre-filtered greedily by
  /// detection count per unit FPR before the LP is built.
  size_t max_lp_variables = 2500;
  /// Workers for the per-candidate scoring passes (0 = hardware
  /// concurrency). Results are written to per-candidate slots, so the
  /// selection outcome is independent of this setting.
  size_t num_threads = 0;
};

struct SelectionResult {
  /// Indices into TrainedModel::constraints.
  std::vector<size_t> selected;
  double lp_objective = 0.0;
  lp::SolveStatus lp_status = lp::SolveStatus::kIterationLimit;
  size_t lp_num_variables = 0;
  size_t lp_num_rows = 0;
  double seconds = 0.0;
  /// Always false: every selection solves its LP and rounds it. Kept
  /// because the repository benchmark (perfbench/) reports it as a
  /// per-layer metric.
  bool used_greedy = false;
  /// Always false: every LP is solved once, from the initial basis. Kept
  /// because the repository benchmark (perfbench/) reports it as a
  /// per-layer metric.
  bool warm_started = false;
};

/// Coarse-grained SDC Selection (Algorithm 1): LP-relaxation of the
/// max-coverage ILP with size and FPR budgets, then randomized rounding.
SelectionResult CoarseSelect(const TrainedModel& model,
                             const SelectionOptions& options = {});

/// Fine-grained SDC Selection: like CSS, but a constraint only counts as
/// covering synthetic column j if its confidence is within delta of
/// conf(C_j, R_all), preserving the confidence calibration of the full set.
SelectionResult FineSelect(const TrainedModel& model,
                           const SelectionOptions& options = {});

/// Shared implementation; delta >= 1 reproduces CoarseSelect exactly.
/// One pass: eligible sets under delta, dedup of rules with identical
/// sets, the pre-filter when over max_lp_variables, one cold LP solve,
/// then randomized rounding.
SelectionResult SelectWithDelta(const TrainedModel& model,
                                const SelectionOptions& options,
                                double delta);

/// The paper pipeline's two rounds: writes CoarseSelect to `coarse_out`
/// when non-null, then returns FineSelect(model, options).
SelectionResult CoarseThenFineSelect(const TrainedModel& model,
                                     const SelectionOptions& options,
                                     SelectionResult* coarse_out = nullptr);

}  // namespace autotest::core

#endif  // AUTOTEST_CORE_SELECTION_H_
