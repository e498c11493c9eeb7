// Differential test harness for the LP solvers: thousands of seeded
// random programs — degenerate, unbounded, infeasible, upper-bounded and
// max-coverage-shaped — are pushed through the dense tableau oracle
// (SolveLpDense, tests/dense_tableau.cc) and the sparse revised simplex
// (SolveLp), asserting matching status, matching objective within
// tolerance, and primal feasibility of the sparse solution. A further
// section proves the warm-started IncrementalSolver equivalent to cold
// solves, and the golden selection tests check the paper pipeline: both
// engines agree on the CSS/FSS LPs of a model with thousands of rules,
// selection reaches that optimum, and selections are thread-count
// invariant and identical between warm and cold solves.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/selection.h"
#include "core/trainer.h"
#include "datagen/corpus_gen.h"
#include "dense_tableau.h"
#include "lp/incremental.h"
#include "lp/simplex.h"
#include "typedet/eval_functions.h"
#include "util/rng.h"

namespace autotest {
namespace {

constexpr double kObjTol = 1e-6;
constexpr double kFeasTol = 1e-6;

double ConstraintLhs(const lp::Constraint& c, const std::vector<double>& x) {
  double lhs = 0.0;
  for (const auto& [var, coef] : c.terms) lhs += coef * x[var];
  return lhs;
}

// Asserts the two solvers agree on `prog`; on optimal also asserts the
// sparse solution is primal feasible. `tag` identifies the failing seed.
void ExpectEquivalent(const lp::LinearProgram& prog, const std::string& tag) {
  lp::Solution dense = lp::SolveLpDense(prog);
  lp::Solution sparse = lp::SolveLp(prog);
  ASSERT_EQ(dense.status, sparse.status)
      << tag << ": dense=" << lp::SolveStatusName(dense.status)
      << " sparse=" << lp::SolveStatusName(sparse.status);
  if (dense.status != lp::SolveStatus::kOptimal) return;
  double scale = std::max({1.0, std::fabs(dense.objective),
                           std::fabs(sparse.objective)});
  EXPECT_LE(std::fabs(dense.objective - sparse.objective), kObjTol * scale)
      << tag << ": dense obj=" << dense.objective
      << " sparse obj=" << sparse.objective;
  ASSERT_EQ(sparse.values.size(), prog.num_vars) << tag;
  for (size_t j = 0; j < prog.num_vars; ++j) {
    EXPECT_GE(sparse.values[j], -kFeasTol) << tag << " var " << j;
    if (prog.upper_bounds[j] != lp::LinearProgram::kInfinity) {
      EXPECT_LE(sparse.values[j], prog.upper_bounds[j] + kFeasTol)
          << tag << " var " << j;
    }
  }
  for (size_t i = 0; i < prog.constraints.size(); ++i) {
    const lp::Constraint& c = prog.constraints[i];
    double lhs = ConstraintLhs(c, sparse.values);
    double slack_tol = kFeasTol * std::max(1.0, std::fabs(c.rhs));
    switch (c.type) {
      case lp::ConstraintType::kLessEq:
        EXPECT_LE(lhs, c.rhs + slack_tol) << tag << " row " << i;
        break;
      case lp::ConstraintType::kGreaterEq:
        EXPECT_GE(lhs, c.rhs - slack_tol) << tag << " row " << i;
        break;
      case lp::ConstraintType::kEqual:
        EXPECT_NEAR(lhs, c.rhs, slack_tol) << tag << " row " << i;
        break;
    }
  }
}

lp::ConstraintType RandomType(util::Rng& rng) {
  int64_t t = rng.UniformInt(0, 5);
  if (t <= 3) return lp::ConstraintType::kLessEq;  // bias towards feasible
  if (t == 4) return lp::ConstraintType::kGreaterEq;
  return lp::ConstraintType::kEqual;
}

// Class A: general random LPs with mixed senses, signs, and bounds.
lp::LinearProgram MakeGeneral(util::Rng& rng) {
  lp::LinearProgram prog;
  size_t n = static_cast<size_t>(rng.UniformInt(1, 8));
  size_t m = static_cast<size_t>(rng.UniformInt(0, 8));
  for (size_t j = 0; j < n; ++j) {
    double upper = rng.Bernoulli(0.5) ? rng.UniformDouble(0.2, 3.0)
                                      : lp::LinearProgram::kInfinity;
    prog.AddVariable(rng.UniformDouble(-2.0, 2.0), upper);
  }
  for (size_t i = 0; i < m; ++i) {
    lp::Constraint c;
    c.type = RandomType(rng);
    c.rhs = rng.UniformDouble(-1.0, 3.0);
    for (size_t j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.6)) c.terms.push_back({j, rng.UniformDouble(-2, 2)});
    }
    if (c.terms.empty()) c.terms.push_back({0, rng.UniformDouble(0.1, 1.0)});
    prog.AddConstraint(std::move(c));
  }
  return prog;
}

// Class B: degenerate LPs — duplicated and scaled rows, zero right-hand
// sides, duplicated columns; many ties in the ratio test.
lp::LinearProgram MakeDegenerate(util::Rng& rng) {
  lp::LinearProgram prog;
  size_t n = static_cast<size_t>(rng.UniformInt(2, 6));
  for (size_t j = 0; j < n; ++j) prog.AddVariable(rng.UniformDouble(0, 1), 1.0);
  size_t base_rows = static_cast<size_t>(rng.UniformInt(1, 4));
  std::vector<lp::Constraint> base;
  for (size_t i = 0; i < base_rows; ++i) {
    lp::Constraint c;
    c.type = lp::ConstraintType::kLessEq;
    c.rhs = rng.Bernoulli(0.3) ? 0.0 : rng.UniformDouble(0.0, 2.0);
    for (size_t j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.7)) {
        // Small-integer coefficients breed exact ties.
        c.terms.push_back({j, static_cast<double>(rng.UniformInt(0, 2))});
      }
    }
    if (c.terms.empty()) c.terms.push_back({0, 1.0});
    base.push_back(c);
  }
  for (const auto& c : base) {
    prog.AddConstraint(c);
    if (rng.Bernoulli(0.5)) {
      lp::Constraint dup = c;  // duplicated row
      prog.AddConstraint(std::move(dup));
    }
    if (rng.Bernoulli(0.3)) {
      lp::Constraint scaled = c;  // scaled row
      for (auto& [var, coef] : scaled.terms) coef *= 2.0;
      scaled.rhs *= 2.0;
      prog.AddConstraint(std::move(scaled));
    }
  }
  return prog;
}

// Class C: unbounded-biased — unbounded variables with positive objective
// and only lower-bounding constraints.
lp::LinearProgram MakeUnboundedBiased(util::Rng& rng) {
  lp::LinearProgram prog;
  size_t n = static_cast<size_t>(rng.UniformInt(1, 5));
  for (size_t j = 0; j < n; ++j) {
    prog.AddVariable(rng.UniformDouble(-0.5, 1.5),
                     rng.Bernoulli(0.3) ? rng.UniformDouble(0.5, 2.0)
                                        : lp::LinearProgram::kInfinity);
  }
  size_t m = static_cast<size_t>(rng.UniformInt(0, 3));
  for (size_t i = 0; i < m; ++i) {
    lp::Constraint c;
    c.type = lp::ConstraintType::kGreaterEq;
    c.rhs = rng.UniformDouble(0.0, 1.0);
    for (size_t j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.5)) c.terms.push_back({j, rng.UniformDouble(0, 1)});
    }
    if (c.terms.empty()) c.terms.push_back({0, 1.0});
    prog.AddConstraint(std::move(c));
  }
  return prog;
}

// Class D: infeasible-biased — contradictory sandwich constraints and
// demands exceeding the variable bounds.
lp::LinearProgram MakeInfeasibleBiased(util::Rng& rng) {
  lp::LinearProgram prog;
  size_t n = static_cast<size_t>(rng.UniformInt(1, 5));
  for (size_t j = 0; j < n; ++j) {
    prog.AddVariable(rng.UniformDouble(-1, 1), rng.UniformDouble(0.3, 1.5));
  }
  lp::Constraint demand;
  demand.type = lp::ConstraintType::kGreaterEq;
  demand.rhs = rng.UniformDouble(0.0, static_cast<double>(2 * n));
  for (size_t j = 0; j < n; ++j) demand.terms.push_back({j, 1.0});
  prog.AddConstraint(std::move(demand));
  if (rng.Bernoulli(0.5)) {
    lp::Constraint lo;
    lo.type = lp::ConstraintType::kLessEq;
    lo.rhs = rng.UniformDouble(0.0, 0.5);
    for (size_t j = 0; j < n; ++j) lo.terms.push_back({j, 1.0});
    prog.AddConstraint(std::move(lo));
  }
  if (rng.Bernoulli(0.4)) {
    lp::Constraint eq;
    eq.type = lp::ConstraintType::kEqual;
    eq.rhs = rng.UniformDouble(-0.5, 1.5);
    eq.terms.push_back({0, 1.0});
    prog.AddConstraint(std::move(eq));
  }
  return prog;
}

// Class E: fully box-bounded problems exercising bound flips.
lp::LinearProgram MakeUpperBounded(util::Rng& rng) {
  lp::LinearProgram prog;
  size_t n = static_cast<size_t>(rng.UniformInt(2, 10));
  for (size_t j = 0; j < n; ++j) {
    prog.AddVariable(rng.UniformDouble(-1, 2), rng.UniformDouble(0.1, 1.0));
  }
  size_t m = static_cast<size_t>(rng.UniformInt(1, 5));
  for (size_t i = 0; i < m; ++i) {
    lp::Constraint c;
    c.type = lp::ConstraintType::kLessEq;
    c.rhs = rng.UniformDouble(0.5, 3.0);
    for (size_t j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.5)) c.terms.push_back({j, rng.UniformDouble(0, 1)});
    }
    if (c.terms.empty()) c.terms.push_back({0, 0.5});
    prog.AddConstraint(std::move(c));
  }
  return prog;
}

// Class F: the CSS-LP shape — coverage rows y_j <= sum_{i in K_j} x_i with
// a size budget and an FPR-like weighted budget.
lp::LinearProgram MakeMaxCoverage(util::Rng& rng) {
  lp::LinearProgram prog;
  size_t n = static_cast<size_t>(rng.UniformInt(3, 25));
  std::vector<size_t> x(n);
  for (size_t i = 0; i < n; ++i) x[i] = prog.AddVariable(0.0, 1.0);
  size_t cols = 2 * n;
  for (size_t j = 0; j < cols; ++j) {
    size_t y = prog.AddVariable(1.0, 1.0);
    lp::Constraint c;
    c.rhs = 0.0;
    c.terms.push_back({y, 1.0});
    size_t covers = static_cast<size_t>(rng.UniformInt(1, 3));
    for (size_t k = 0; k < covers; ++k) {
      c.terms.push_back(
          {x[static_cast<size_t>(
               rng.UniformInt(0, static_cast<int64_t>(n) - 1))],
           -1.0});
    }
    prog.AddConstraint(std::move(c));
  }
  lp::Constraint size_c;
  size_c.rhs = std::max(1.0, static_cast<double>(n) / 4.0);
  for (size_t i = 0; i < n; ++i) size_c.terms.push_back({x[i], 1.0});
  prog.AddConstraint(std::move(size_c));
  lp::Constraint fpr_c;
  fpr_c.rhs = rng.UniformDouble(0.05, 0.5);
  for (size_t i = 0; i < n; ++i) {
    fpr_c.terms.push_back({x[i], rng.UniformDouble(0.001, 0.1)});
  }
  prog.AddConstraint(std::move(fpr_c));
  return prog;
}

struct FuzzClass {
  const char* name;
  lp::LinearProgram (*make)(util::Rng&);
  int count;
};

TEST(LpDifferentialTest, FuzzDenseVsRevised) {
  // >= 2,000 seeded LPs across the six adversarial classes.
  const FuzzClass classes[] = {
      {"general", MakeGeneral, 500},
      {"degenerate", MakeDegenerate, 400},
      {"unbounded", MakeUnboundedBiased, 350},
      {"infeasible", MakeInfeasibleBiased, 350},
      {"upper_bounded", MakeUpperBounded, 400},
      {"max_coverage", MakeMaxCoverage, 400},
  };
  int statuses[4] = {0, 0, 0, 0};
  for (const auto& cls : classes) {
    for (int t = 0; t < cls.count; ++t) {
      util::Rng rng(0x5eed0000 + static_cast<uint64_t>(t) * 131 +
                    static_cast<uint64_t>(cls.name[0]));
      lp::LinearProgram prog = cls.make(rng);
      std::string tag = std::string(cls.name) + "/" + std::to_string(t);
      ExpectEquivalent(prog, tag);
      if (HasFatalFailure()) return;
      statuses[static_cast<int>(lp::SolveLp(prog).status)]++;
    }
  }
  // The corpus genuinely exercises every terminal status.
  EXPECT_GT(statuses[static_cast<int>(lp::SolveStatus::kOptimal)], 500);
  EXPECT_GT(statuses[static_cast<int>(lp::SolveStatus::kInfeasible)], 50);
  EXPECT_GT(statuses[static_cast<int>(lp::SolveStatus::kUnbounded)], 50);
  EXPECT_EQ(statuses[static_cast<int>(lp::SolveStatus::kIterationLimit)], 0);
}

TEST(LpDifferentialTest, EmptyAndTrivialLps) {
  // Regression: the Solution default of kIterationLimit must not leak out
  // of early-exit paths — an empty LP is optimal with objective 0.
  lp::LinearProgram empty;
  for (auto* solve : {lp::SolveLp, lp::SolveLpDense}) {
    lp::Solution s = solve(empty);
    EXPECT_EQ(s.status, lp::SolveStatus::kOptimal);
    EXPECT_EQ(s.objective, 0.0);
    EXPECT_TRUE(s.values.empty());
  }
  // 0 variables but a trivially satisfied constraint.
  lp::LinearProgram no_vars;
  lp::Constraint c;
  c.type = lp::ConstraintType::kLessEq;
  c.rhs = 1.0;
  no_vars.AddConstraint(std::move(c));
  for (auto* solve : {lp::SolveLp, lp::SolveLpDense}) {
    lp::Solution s = solve(no_vars);
    EXPECT_EQ(s.status, lp::SolveStatus::kOptimal);
    EXPECT_EQ(s.objective, 0.0);
  }
  // 0 variables and an unsatisfiable constraint: infeasible, not a limit.
  lp::LinearProgram bad;
  lp::Constraint g;
  g.type = lp::ConstraintType::kGreaterEq;
  g.rhs = 1.0;
  bad.AddConstraint(std::move(g));
  for (auto* solve : {lp::SolveLp, lp::SolveLpDense}) {
    EXPECT_EQ(solve(bad).status, lp::SolveStatus::kInfeasible);
  }
}

// ---------------------------------------------------------------------------
// IncrementalSolver: warm-started column addition must agree with a cold
// solve of the final program, across many seeded growth schedules. Each
// test keeps its own copy of the program for the cold solve.
// ---------------------------------------------------------------------------

// Writes column `var` (appended when var == prog->num_vars) into `prog`.
void SetColumn(lp::LinearProgram* prog, size_t var, double objective,
               double upper,
               const std::vector<std::pair<size_t, double>>& terms) {
  if (var == prog->num_vars) {
    prog->AddVariable(objective, upper);
  } else {
    prog->objective[var] = objective;
    prog->upper_bounds[var] = upper;
    for (lp::Constraint& c : prog->constraints) {
      std::erase_if(c.terms, [var](const std::pair<size_t, double>& t) {
        return t.first == var;
      });
    }
  }
  for (const auto& [row, coef] : terms) {
    prog->constraints[row].terms.push_back({var, coef});
  }
}

TEST(LpDifferentialTest, IncrementalWarmStartMatchesColdSolve) {
  for (uint64_t seed = 0; seed < 120; ++seed) {
    util::Rng rng(9000 + seed);
    size_t rows = static_cast<size_t>(rng.UniformInt(3, 20));
    lp::LinearProgram prog;
    for (size_t i = 0; i < rows; ++i) {
      lp::Constraint c;
      c.type = lp::ConstraintType::kLessEq;
      c.rhs = rng.UniformDouble(0.0, 2.0);
      prog.AddConstraint(std::move(c));
    }
    lp::IncrementalSolver inc(prog);
    size_t waves = static_cast<size_t>(rng.UniformInt(2, 5));
    for (size_t w = 0; w < waves; ++w) {
      size_t batch = static_cast<size_t>(rng.UniformInt(1, 8));
      for (size_t b = 0; b < batch; ++b) {
        std::vector<std::pair<size_t, double>> terms;
        for (size_t i = 0; i < rows; ++i) {
          if (rng.Bernoulli(0.4)) {
            terms.push_back({i, rng.UniformDouble(-1.0, 1.0)});
          }
        }
        double objective = rng.UniformDouble(-0.5, 1.5);
        double upper =
            rng.Bernoulli(0.7) ? 1.0 : lp::LinearProgram::kInfinity;
        size_t var = inc.AddVariable(objective, upper, terms);
        ASSERT_EQ(var, prog.num_vars) << "seed " << seed;
        SetColumn(&prog, var, objective, upper, terms);
      }
      const lp::Solution& warm = inc.Solve();
      lp::Solution cold = lp::SolveLp(prog);
      ASSERT_EQ(warm.status, cold.status) << "seed " << seed << " wave " << w;
      if (warm.status == lp::SolveStatus::kOptimal) {
        double scale = std::max(1.0, std::fabs(cold.objective));
        EXPECT_LE(std::fabs(warm.objective - cold.objective), kObjTol * scale)
            << "seed " << seed << " wave " << w;
      }
    }
    EXPECT_EQ(inc.num_vars(), prog.num_vars);
    EXPECT_EQ(inc.num_rows(), rows);
  }
}

TEST(LpDifferentialTest, IncrementalReplaceVariable) {
  // Replacing a nonbasic-at-lower column keeps warm starts; replacing a
  // basic column forces a cold restart. Either way the result must match
  // a cold solve of the rewritten program.
  for (uint64_t seed = 0; seed < 60; ++seed) {
    util::Rng rng(7700 + seed);
    lp::LinearProgram prog;
    size_t rows = static_cast<size_t>(rng.UniformInt(2, 8));
    for (size_t i = 0; i < rows; ++i) {
      lp::Constraint c;
      c.type = lp::ConstraintType::kLessEq;
      c.rhs = rng.UniformDouble(0.5, 2.0);
      prog.AddConstraint(std::move(c));
    }
    lp::IncrementalSolver inc(prog);
    size_t n = static_cast<size_t>(rng.UniformInt(3, 10));
    for (size_t j = 0; j < n; ++j) {
      std::vector<std::pair<size_t, double>> terms;
      for (size_t i = 0; i < rows; ++i) {
        if (rng.Bernoulli(0.5)) terms.push_back({i, rng.UniformDouble(0, 1)});
      }
      double objective = rng.UniformDouble(0, 1);
      size_t var = inc.AddVariable(objective, 1.0, terms);
      SetColumn(&prog, var, objective, 1.0, terms);
    }
    ASSERT_EQ(inc.Solve().status, lp::SolveStatus::kOptimal);
    size_t victim = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    std::vector<std::pair<size_t, double>> new_terms;
    for (size_t i = 0; i < rows; ++i) {
      if (rng.Bernoulli(0.5)) new_terms.push_back({i, rng.UniformDouble(0, 1)});
    }
    double objective = rng.UniformDouble(0, 1);
    inc.ReplaceVariable(victim, objective, 1.0, new_terms);
    SetColumn(&prog, victim, objective, 1.0, new_terms);
    const lp::Solution& after = inc.Solve();
    lp::Solution cold = lp::SolveLp(prog);
    ASSERT_EQ(after.status, cold.status) << "seed " << seed;
    double scale = std::max(1.0, std::fabs(cold.objective));
    EXPECT_LE(std::fabs(after.objective - cold.objective), kObjTol * scale)
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Golden selections on the paper pipeline: train a real model with
// thousands of rules from the synthetic corpus generator, then check the
// selection LP against the paper's CSS/FSS LPs solved by both engines,
// and selections across thread counts and warm incremental re-selection.
// ---------------------------------------------------------------------------

class GoldenSelectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto corpus =
        datagen::GenerateCorpus(datagen::RelationalTablesProfile(800));
    typedet::EvalFunctionSetOptions eval_opt;
    eval_opt.embedding_centroids_per_model = 20;
    auto evals = typedet::EvalFunctionSet::Build(corpus, eval_opt);
    core::TrainOptions topt;
    topt.synthetic_count = 400;
    model_ = new core::TrainedModel(core::TrainAutoTest(corpus, evals, topt));
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }
  static core::TrainedModel* model_;
};

core::TrainedModel* GoldenSelectionTest::model_ = nullptr;

void ExpectByteIdentical(const core::SelectionResult& a,
                         const core::SelectionResult& b, const char* tag) {
  EXPECT_EQ(a.selected, b.selected) << tag;
  EXPECT_EQ(a.lp_status, b.lp_status) << tag;
  EXPECT_EQ(a.lp_num_variables, b.lp_num_variables) << tag;
  EXPECT_EQ(a.lp_num_rows, b.lp_num_rows) << tag;
  EXPECT_EQ(a.used_greedy, b.used_greedy) << tag;
}

// The paper's selection LP (Eq. 14-18) built straight from the model:
// maximize sum_j y_j subject to y_j <= sum of x_i over the rules i that
// may cover synthetic column j under delta, sum_i x_i <= B_size and
// sum_i fpr_i x_i <= B_FPR, with 0 <= x, y <= 1. One x per rule and one y
// per synthetic column: no dedup and no tie-break perturbation.
lp::LinearProgram PaperLp(const core::TrainedModel& model,
                          const core::SelectionOptions& opt, double delta) {
  lp::LinearProgram prog;
  std::vector<lp::Constraint> coverage(model.num_synthetic);
  for (size_t j = 0; j < model.num_synthetic; ++j) {
    coverage[j].terms.push_back({prog.AddVariable(1.0, 1.0), 1.0});
  }
  lp::Constraint size_budget;
  size_budget.rhs = static_cast<double>(opt.size_budget);
  lp::Constraint fpr_budget;
  fpr_budget.rhs = opt.fpr_budget;
  for (size_t i = 0; i < model.constraints.size(); ++i) {
    const core::Sdc& rule = model.constraints[i];
    size_t x = prog.AddVariable(0.0, 1.0);
    for (uint32_t j : model.detections[i]) {
      if (rule.confidence >= model.synthetic_conf_all[j] - delta) {
        coverage[j].terms.push_back({x, -1.0});
      }
    }
    size_budget.terms.push_back({x, 1.0});
    fpr_budget.terms.push_back({x, rule.fpr});
  }
  for (lp::Constraint& c : coverage) prog.AddConstraint(std::move(c));
  prog.AddConstraint(std::move(size_budget));
  prog.AddConstraint(std::move(fpr_budget));
  return prog;
}

TEST_F(GoldenSelectionTest, SelectionReachesThePaperLpOptimum) {
  ASSERT_GE(model_->constraints.size(), 2000u);
  core::SelectionOptions opt;
  opt.max_lp_variables = model_->constraints.size() + 1;  // no pre-filter
  for (double delta : {1.0, opt.delta}) {
    const char* tag = delta == 1.0 ? "css" : "fss";
    lp::LinearProgram paper = PaperLp(*model_, opt, delta);
    lp::Solution sparse = lp::SolveLp(paper);
    lp::Solution dense = lp::SolveLpDense(paper);
    ASSERT_EQ(sparse.status, lp::SolveStatus::kOptimal) << tag;
    ASSERT_EQ(dense.status, lp::SolveStatus::kOptimal) << tag;
    EXPECT_NEAR(sparse.objective, dense.objective, 1e-6) << tag;
    EXPECT_GT(sparse.objective, 0.0) << tag;

    // Dedup keeps the cheapest rule of each coverage set, so it cannot
    // lower the optimum; the tie-break perturbation costs at most 2e-5
    // per selected rule and never raises it.
    core::SelectionResult sel = core::SelectWithDelta(*model_, opt, delta);
    ASSERT_EQ(sel.lp_status, lp::SolveStatus::kOptimal) << tag;
    EXPECT_LE(sel.lp_objective, sparse.objective + 1e-6) << tag;
    EXPECT_GE(sel.lp_objective,
              sparse.objective - 2e-5 * static_cast<double>(opt.size_budget))
        << tag;
  }
}

TEST_F(GoldenSelectionTest, ThreadCountInvariantAcrossSolvers) {
  for (auto solver : {core::SelectionSolver::kRevisedSimplex,
                      core::SelectionSolver::kGreedy}) {
    core::SelectionOptions opt;
    opt.solver = solver;
    opt.num_threads = 1;
    core::SelectionResult s1 = core::FineSelect(*model_, opt);
    opt.num_threads = 8;
    core::SelectionResult s8 = core::FineSelect(*model_, opt);
    ExpectByteIdentical(s1, s8, "threads");
    EXPECT_EQ(s1.lp_objective, s8.lp_objective);
  }
}

TEST_F(GoldenSelectionTest, WarmIncrementalMatchesOneShotOnPipeline) {
  // Stream the trained model's candidates into the selector in four
  // chunks; the final warm re-priced selection must equal the one-shot.
  core::SelectionOptions opt;
  opt.max_lp_variables = model_->constraints.size() + 1;  // stay warm
  core::SelectionResult one_shot =
      core::SelectWithDelta(*model_, opt, opt.delta);
  core::IncrementalSelector selector(*model_, opt, opt.delta);
  size_t n = model_->constraints.size();
  core::SelectionResult streamed;
  for (size_t k = 1; k <= 4; ++k) {
    streamed = selector.Reselect(k * n / 4 + (k == 4 ? n % 4 : 0));
  }
  ExpectByteIdentical(streamed, one_shot, "warm-pipeline");
}

TEST_F(GoldenSelectionTest, PipelineVariantMatchesFineSelect) {
  core::SelectionOptions opt;
  core::SelectionResult coarse;
  core::SelectionResult fine =
      core::CoarseThenFineSelect(*model_, opt, &coarse);
  core::SelectionResult reference = core::FineSelect(*model_, opt);
  ExpectByteIdentical(fine, reference, "pipeline");
  core::SelectionResult coarse_ref = core::CoarseSelect(*model_, opt);
  ExpectByteIdentical(coarse, coarse_ref, "pipeline-coarse");
}

}  // namespace
}  // namespace autotest
