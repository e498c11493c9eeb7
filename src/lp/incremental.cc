#include "lp/incremental.h"

namespace autotest::lp {

IncrementalSolver::IncrementalSolver(const LinearProgram& base)
    : engine_(base) {}

size_t IncrementalSolver::AddVariable(
    double objective, double upper,
    const std::vector<std::pair<size_t, double>>& terms) {
  return engine_.AddStructural(objective, upper, terms);
}

void IncrementalSolver::ReplaceVariable(
    size_t var, double objective, double upper,
    const std::vector<std::pair<size_t, double>>& terms) {
  engine_.ReplaceStructural(var, objective, upper, terms);
}

const Solution& IncrementalSolver::Solve() {
  bool warm = solved_once_ && engine_.basis_valid() &&
              solution_.status == SolveStatus::kOptimal;
  solution_.status = warm ? engine_.ReOptimize() : engine_.SolveFromScratch();
  last_solve_was_warm_ = warm;
  solved_once_ = true;
  if (solution_.status == SolveStatus::kOptimal) {
    engine_.Extract(&solution_);
  } else {
    solution_.values.clear();
    solution_.objective = 0.0;
  }
  return solution_;
}

}  // namespace autotest::lp
