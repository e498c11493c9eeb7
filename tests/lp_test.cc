#include <gtest/gtest.h>

#include "dense_tableau.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"
#include "util/rng.h"

namespace autotest::lp {
namespace {

Constraint Le(std::vector<std::pair<size_t, double>> terms, double rhs) {
  return Constraint{std::move(terms), ConstraintType::kLessEq, rhs};
}
Constraint Ge(std::vector<std::pair<size_t, double>> terms, double rhs) {
  return Constraint{std::move(terms), ConstraintType::kGreaterEq, rhs};
}
Constraint Eq(std::vector<std::pair<size_t, double>> terms, double rhs) {
  return Constraint{std::move(terms), ConstraintType::kEqual, rhs};
}

TEST(SimplexTest, TextbookMaximization) {
  // max 3x + 5y, x <= 4, 2y <= 12, 3x + 2y <= 18 -> opt 36 at (2, 6).
  LinearProgram lp;
  size_t x = lp.AddVariable(3.0);
  size_t y = lp.AddVariable(5.0);
  lp.AddConstraint(Le({{x, 1.0}}, 4.0));
  lp.AddConstraint(Le({{y, 2.0}}, 12.0));
  lp.AddConstraint(Le({{x, 3.0}, {y, 2.0}}, 18.0));
  Solution s = SolveLp(lp);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-7);
  EXPECT_NEAR(s.values[x], 2.0, 1e-7);
  EXPECT_NEAR(s.values[y], 6.0, 1e-7);
}

TEST(SimplexTest, UpperBoundsViaBoundFlips) {
  // max x + y with x, y in [0, 1], x + y <= 1.5 -> 1.5.
  LinearProgram lp;
  size_t x = lp.AddVariable(1.0, 1.0);
  size_t y = lp.AddVariable(1.0, 1.0);
  lp.AddConstraint(Le({{x, 1.0}, {y, 1.0}}, 1.5));
  Solution s = SolveLp(lp);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.5, 1e-7);
  EXPECT_LE(s.values[x], 1.0 + 1e-9);
  EXPECT_LE(s.values[y], 1.0 + 1e-9);
}

TEST(SimplexTest, PureBoundProblem) {
  // No constraints at all: every variable goes to its upper bound.
  LinearProgram lp;
  lp.AddVariable(2.0, 3.0);
  lp.AddVariable(1.0, 5.0);
  Solution s = SolveLp(lp);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 11.0, 1e-7);
}

TEST(SimplexTest, UnboundedDetected) {
  LinearProgram lp;
  size_t x = lp.AddVariable(1.0);
  lp.AddConstraint(Ge({{x, 1.0}}, 1.0));
  Solution s = SolveLp(lp);
  EXPECT_EQ(s.status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, InfeasibleDetected) {
  LinearProgram lp;
  size_t x = lp.AddVariable(1.0, 1.0);
  lp.AddConstraint(Ge({{x, 1.0}}, 2.0));  // x >= 2 but x <= 1
  Solution s = SolveLp(lp);
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, GreaterEqAndEquality) {
  // min x + y s.t. x + 2y >= 4, x = 1  ->  y = 1.5 (as max of -(x+y)).
  LinearProgram lp;
  size_t x = lp.AddVariable(-1.0);
  size_t y = lp.AddVariable(-1.0);
  lp.AddConstraint(Ge({{x, 1.0}, {y, 2.0}}, 4.0));
  lp.AddConstraint(Eq({{x, 1.0}}, 1.0));
  Solution s = SolveLp(lp);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[x], 1.0, 1e-7);
  EXPECT_NEAR(s.values[y], 1.5, 1e-7);
  EXPECT_NEAR(s.objective, -2.5, 1e-7);
}

TEST(SimplexTest, NegativeRhsNormalized) {
  // -x <= -2  <=>  x >= 2; max -x -> x = 2.
  LinearProgram lp;
  size_t x = lp.AddVariable(-1.0);
  lp.AddConstraint(Le({{x, -1.0}}, -2.0));
  Solution s = SolveLp(lp);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[x], 2.0, 1e-7);
}

TEST(SimplexTest, DegenerateProblem) {
  // Multiple constraints active at the optimum; must not cycle.
  LinearProgram lp;
  size_t x = lp.AddVariable(1.0);
  size_t y = lp.AddVariable(1.0);
  lp.AddConstraint(Le({{x, 1.0}, {y, 1.0}}, 1.0));
  lp.AddConstraint(Le({{x, 1.0}}, 1.0));
  lp.AddConstraint(Le({{y, 1.0}}, 1.0));
  lp.AddConstraint(Le({{x, 2.0}, {y, 1.0}}, 2.0));
  Solution s = SolveLp(lp);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-7);
}

TEST(SimplexTest, MaxCoverageLpRelaxationStructure) {
  // The CSS-LP shape: y_j <= sum_{i in K_j} x_i, budget on x.
  // 3 rules, 4 columns; K = {0:{0}, 1:{0,1}, 2:{1,2}, 3:{2}}; budget 2.
  // LP optimum: pick x0 = x2 = 1 -> covers all 4 columns.
  LinearProgram lp;
  std::vector<size_t> x;
  std::vector<size_t> y;
  for (int i = 0; i < 3; ++i) x.push_back(lp.AddVariable(0.0, 1.0));
  for (int j = 0; j < 4; ++j) y.push_back(lp.AddVariable(1.0, 1.0));
  std::vector<std::vector<size_t>> k = {{0}, {0, 1}, {1, 2}, {2}};
  for (int j = 0; j < 4; ++j) {
    Constraint c;
    c.type = ConstraintType::kLessEq;
    c.rhs = 0.0;
    c.terms.push_back({y[static_cast<size_t>(j)], 1.0});
    for (size_t i : k[static_cast<size_t>(j)]) c.terms.push_back({x[i], -1.0});
    lp.AddConstraint(std::move(c));
  }
  lp.AddConstraint(Le({{x[0], 1.0}, {x[1], 1.0}, {x[2], 1.0}}, 2.0));
  Solution s = SolveLp(lp);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-6);
}

TEST(SimplexTest, RandomizedAgainstBruteForce) {
  // Property test: on random small LPs with box bounds, simplex must match
  // brute-force over vertex candidates (grid search refinement).
  util::Rng rng(123);
  for (int trial = 0; trial < 30; ++trial) {
    LinearProgram lp;
    size_t n = 2;
    std::vector<size_t> vars;
    for (size_t j = 0; j < n; ++j) {
      vars.push_back(lp.AddVariable(rng.UniformDouble(-1, 1), 1.0));
    }
    for (int c = 0; c < 3; ++c) {
      Constraint con;
      con.type = ConstraintType::kLessEq;
      con.rhs = rng.UniformDouble(0.5, 2.0);
      for (size_t j = 0; j < n; ++j) {
        con.terms.push_back({vars[j], rng.UniformDouble(0, 1)});
      }
      lp.AddConstraint(std::move(con));
    }
    Solution s = SolveLp(lp);
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    // Grid check: no feasible grid point beats the simplex optimum.
    double best = -1e18;
    const int kGrid = 40;
    for (int a = 0; a <= kGrid; ++a) {
      for (int b = 0; b <= kGrid; ++b) {
        double xv = static_cast<double>(a) / kGrid;
        double yv = static_cast<double>(b) / kGrid;
        bool feasible = true;
        for (const auto& con : lp.constraints) {
          double lhs = con.terms[0].second * xv + con.terms[1].second * yv;
          if (lhs > con.rhs + 1e-9) feasible = false;
        }
        if (feasible) {
          best = std::max(best, lp.objective[0] * xv + lp.objective[1] * yv);
        }
      }
    }
    EXPECT_GE(s.objective, best - 1e-6) << "trial " << trial;
  }
}

TEST(SimplexTest, LargerRandomFeasibility) {
  // 60 vars, 40 constraints: solution must satisfy every constraint.
  util::Rng rng(7);
  LinearProgram lp;
  for (int j = 0; j < 60; ++j) lp.AddVariable(rng.UniformDouble(0, 1), 1.0);
  for (int c = 0; c < 40; ++c) {
    Constraint con;
    con.type = ConstraintType::kLessEq;
    con.rhs = rng.UniformDouble(1.0, 5.0);
    for (size_t j = 0; j < 60; ++j) {
      if (rng.Bernoulli(0.2)) con.terms.push_back({j, rng.UniformDouble(0, 1)});
    }
    if (con.terms.empty()) con.terms.push_back({0, 0.5});
    lp.AddConstraint(std::move(con));
  }
  Solution s = SolveLp(lp);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  for (const auto& con : lp.constraints) {
    double lhs = 0;
    for (const auto& [j, coef] : con.terms) lhs += coef * s.values[j];
    EXPECT_LE(lhs, con.rhs + 1e-6);
  }
  for (double v : s.values) {
    EXPECT_GE(v, -1e-9);
    EXPECT_LE(v, 1.0 + 1e-9);
  }
}

TEST(SimplexTest, StatusNames) {
  EXPECT_STREQ(SolveStatusName(SolveStatus::kOptimal), "optimal");
  EXPECT_STREQ(SolveStatusName(SolveStatus::kInfeasible), "infeasible");
}

TEST(SimplexTest, EmptyLpIsOptimalNotIterationLimit) {
  // Regression: the Solution struct defaults status to kIterationLimit;
  // the early-exit for a 0-var/0-constraint program must overwrite it.
  LinearProgram lp;
  Solution s = SolveLp(lp);
  EXPECT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_EQ(s.objective, 0.0);
  EXPECT_TRUE(s.values.empty());
  Solution d = SolveLpDense(lp);
  EXPECT_EQ(d.status, SolveStatus::kOptimal);
  EXPECT_EQ(d.objective, 0.0);
}

TEST(SimplexTest, NoConstraintsBoundedVarsIsOptimal) {
  // No rows at all: the answer is the bound-respecting greedy assignment.
  LinearProgram lp;
  lp.AddVariable(2.0, 1.5);                       // at upper
  lp.AddVariable(-1.0, 4.0);                      // at lower
  lp.AddVariable(0.0, LinearProgram::kInfinity);  // free to stay at 0
  Solution s = SolveLp(lp);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-9);
  EXPECT_NEAR(s.values[0], 1.5, 1e-9);
  EXPECT_NEAR(s.values[1], 0.0, 1e-9);
}

TEST(SimplexTest, DenseSolverStillAvailableAsReference) {
  // SolveLpDense is the test-tree tableau oracle; spot-check that it
  // matches the revised simplex on a small mixed program.
  LinearProgram lp;
  size_t x = lp.AddVariable(3.0, LinearProgram::kInfinity);
  size_t y = lp.AddVariable(2.0, 5.0);
  Constraint c1;
  c1.type = ConstraintType::kLessEq;
  c1.rhs = 10.0;
  c1.terms = {{x, 1.0}, {y, 2.0}};
  lp.AddConstraint(std::move(c1));
  Constraint c2;
  c2.type = ConstraintType::kGreaterEq;
  c2.rhs = 1.0;
  c2.terms = {{x, 1.0}};
  lp.AddConstraint(std::move(c2));
  Solution sparse = SolveLp(lp);
  Solution dense = SolveLpDense(lp);
  ASSERT_EQ(sparse.status, SolveStatus::kOptimal);
  ASSERT_EQ(dense.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sparse.objective, dense.objective, 1e-9);
}

TEST(RevisedSimplexTest, RowsFirstThenColumnsViaAddStructural) {
  // The selection's build shape: the rows are fixed with no columns, and
  // the program then arrives column by column through AddStructural. With
  // no columns the engine solves to zero; with them it must agree with
  // SolveLp on the same program given whole.
  LinearProgram rows;
  rows.AddConstraint(Le({}, 2.0));
  rows.AddConstraint(Le({}, 2.0));
  RevisedSimplex engine(rows);
  Solution empty;
  ASSERT_EQ(engine.SolveFromScratch(), SolveStatus::kOptimal);
  engine.Extract(&empty);
  EXPECT_EQ(empty.objective, 0.0);
  EXPECT_TRUE(empty.values.empty());

  EXPECT_EQ(engine.AddStructural(1.0, 1.0, {{0, 1.0}, {1, 1.0}}), 0u);
  EXPECT_EQ(engine.AddStructural(2.0, 1.0, {{0, 1.0}, {1, 2.0}}), 1u);
  // Duplicate row entries are summed: x2 has coefficient 1 on row 0.
  EXPECT_EQ(engine.AddStructural(5.0, 1.0, {{0, 0.5}, {0, 0.5}}), 2u);
  EXPECT_EQ(engine.num_structurals(), 3u);
  EXPECT_EQ(engine.num_rows(), 2u);
  Solution built;
  ASSERT_EQ(engine.SolveFromScratch(), SolveStatus::kOptimal);
  engine.Extract(&built);

  LinearProgram whole;
  whole.AddVariable(1.0, 1.0);
  whole.AddVariable(2.0, 1.0);
  whole.AddVariable(5.0, 1.0);
  whole.AddConstraint(Le({{0, 1.0}, {1, 1.0}, {2, 1.0}}, 2.0));
  whole.AddConstraint(Le({{0, 1.0}, {1, 2.0}}, 2.0));
  Solution reference = SolveLp(whole);
  ASSERT_EQ(reference.status, SolveStatus::kOptimal);
  EXPECT_NEAR(built.objective, 7.0, 1e-9);
  EXPECT_NEAR(reference.objective, built.objective, 1e-9);
  ASSERT_EQ(built.values.size(), 3u);
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(built.values[j], reference.values[j], 1e-9) << "var " << j;
  }
}

}  // namespace
}  // namespace autotest::lp
