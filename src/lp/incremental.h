#ifndef AUTOTEST_LP_INCREMENTAL_H_
#define AUTOTEST_LP_INCREMENTAL_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "lp/revised_simplex.h"
#include "lp/simplex.h"

namespace autotest::lp {

/// Warm-started incremental LP solver for column-growing programs.
///
/// The constructor fixes the row skeleton (constraint senses and
/// right-hand sides, plus any initial columns); afterwards columns may be
/// appended with AddVariable or rewritten with ReplaceVariable, and Solve
/// re-prices from the previous optimal basis instead of restarting the
/// two-phase method — a new column enters nonbasic at its lower bound, so
/// an optimal basis stays primal feasible and only dual feasibility has
/// to be restored.
class IncrementalSolver {
 public:
  explicit IncrementalSolver(const LinearProgram& base);

  /// Appends a variable with coefficients `terms` = (row index, coef).
  /// Returns the variable index.
  size_t AddVariable(double objective, double upper,
                     const std::vector<std::pair<size_t, double>>& terms);

  /// Rewrites an existing variable's objective, bound, and column. Warm
  /// starts survive while the variable sits nonbasic at its lower bound
  /// in the previous optimum; otherwise the next Solve restarts cold.
  void ReplaceVariable(size_t var, double objective, double upper,
                       const std::vector<std::pair<size_t, double>>& terms);

  /// Solves (warm-started when possible) and caches the result.
  const Solution& Solve();

  /// Whether the most recent Solve re-priced from a previous optimal
  /// basis rather than running the full two-phase method.
  bool last_solve_was_warm() const { return last_solve_was_warm_; }

  size_t num_vars() const { return engine_.num_structurals(); }
  size_t num_rows() const { return engine_.num_rows(); }

 private:
  RevisedSimplex engine_;
  Solution solution_;
  bool solved_once_ = false;
  bool last_solve_was_warm_ = false;
};

}  // namespace autotest::lp

#endif  // AUTOTEST_LP_INCREMENTAL_H_
