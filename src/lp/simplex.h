#ifndef AUTOTEST_LP_SIMPLEX_H_
#define AUTOTEST_LP_SIMPLEX_H_

#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace autotest::lp {

/// Constraint sense.
enum class ConstraintType { kLessEq, kGreaterEq, kEqual };

/// One linear constraint: sum(coef * x[var]) <type> rhs.
struct Constraint {
  std::vector<std::pair<size_t, double>> terms;  // (variable index, coef)
  ConstraintType type = ConstraintType::kLessEq;
  double rhs = 0.0;
};

/// A linear program in maximization form with variable bounds
/// 0 <= x_j <= upper_bounds[j] (may be +infinity).
struct LinearProgram {
  size_t num_vars = 0;
  std::vector<double> objective;     // size num_vars; maximize c'x
  std::vector<double> upper_bounds;  // size num_vars; use kInfinity
  std::vector<Constraint> constraints;

  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  /// Adds a variable; returns its index.
  size_t AddVariable(double objective_coef, double upper_bound = kInfinity);
  /// Adds a constraint; returns its index.
  size_t AddConstraint(Constraint c);
};

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

const char* SolveStatusName(SolveStatus status);

struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> values;  // size num_vars when kOptimal
};

/// Solves the LP with the sparse revised simplex (column-major sparse
/// storage, LU-factorized basis with a product-form eta file and periodic
/// refactorization, devex pricing with a Bland anti-cycling fallback,
/// native variable upper bounds). An empty LP (0 variables, 0 constraints)
/// returns kOptimal with objective 0.
Solution SolveLp(const LinearProgram& lp);

}  // namespace autotest::lp

#endif  // AUTOTEST_LP_SIMPLEX_H_
