#include "core/selection.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "lp/revised_simplex.h"
#include "util/hashing.h"
#include "util/parallel/thread_pool.h"
#include "util/rng.h"

namespace autotest::core {

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint32_t kNoVar = 0xffffffffu;

using EligibleSets = std::vector<std::vector<uint32_t>>;

uint64_t HashIds(const std::vector<uint32_t>& ids) {
  uint64_t h = 1469598103934665603ULL;
  for (uint32_t x : ids) {
    h ^= x;
    h *= 1099511628211ULL;
    h = util::SplitMix64(h);
  }
  return h ^ ids.size();
}

// Deterministic tie-break perturbation on the x objectives: strictly
// negative and unique per rule, ~1e-5 in magnitude. It makes the LP
// optimum generically unique, so the vertex the simplex lands on — and
// with it the rounded selection — is fixed by the program rather than by
// pivoting order among alternate optima. The scale matters on both
// sides: pairwise (and small-subset) perturbation differences must stay
// well above the simplex pricing tolerance (1e-9) or alternate optima
// within tolerance survive, while the worst-case total (max_lp_variables
// x 2e-5 = 0.05) must stay below the unit coverage weight so the
// perturbation can never trade away a genuinely covered column.
double PerturbObjective(size_t rule) {
  uint64_t h = util::SplitMix64(0x61757465737471ULL ^
                                (rule * 0x9e3779b97f4a7c15ULL));
  double frac = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  return -1e-5 * (1.0 + frac);
}

// Collapse solver-level noise at the bound vertices so Bernoulli rounding
// sees exact 0/1 probabilities there.
double Snap01(double v) {
  if (v > 1.0 - 1e-6) return 1.0;
  if (v < 1e-6) return 0.0;
  return v;
}

// Per rule: the synthetic columns it may cover under delta, i.e. those
// whose all-rules confidence it approximates within delta (every
// detection when delta >= 1).
EligibleSets Eligible(const TrainedModel& model, double delta,
                      const util::parallel::Options& par_opt) {
  EligibleSets eligible(model.constraints.size());
  util::parallel::ParallelFor(
      eligible.size(),
      [&](size_t i) {
        double c = model.constraints[i].confidence;
        for (uint32_t j : model.detections[i]) {
          if (c >= model.synthetic_conf_all[j] - delta) {
            eligible[i].push_back(j);
          }
        }
      },
      par_opt);
  return eligible;
}

// Deduplicates rules with identical non-empty eligible sets: for the LP
// they are interchangeable columns, so each set keeps its cheapest rule
// (min FPR, then max confidence) at the position where the set first
// appeared.
std::vector<size_t> Dedup(const TrainedModel& model,
                          const EligibleSets& eligible) {
  std::unordered_map<uint64_t, size_t> pos_by_set;
  std::vector<size_t> kept;
  for (size_t i = 0; i < eligible.size(); ++i) {
    if (eligible[i].empty()) continue;
    auto [it, inserted] = pos_by_set.emplace(HashIds(eligible[i]), kept.size());
    if (inserted) {
      kept.push_back(i);
      continue;
    }
    size_t& rep = kept[it->second];
    // Hash collision guard: only merge when the sets really match.
    if (eligible[rep] != eligible[i]) {
      kept.push_back(i);
      continue;
    }
    const Sdc& a = model.constraints[i];
    const Sdc& b = model.constraints[rep];
    if (a.fpr < b.fpr || (a.fpr == b.fpr && a.confidence > b.confidence)) {
      rep = i;
    }
  }
  return kept;
}

// Greedy pre-filter when the LP would be too large: keeps the
// `max_rules` rules with the most eligible columns per unit FPR, in rule
// order. Scores are cached per rule, so the sort compares the exact same
// doubles regardless of thread count.
std::vector<size_t> Prefilter(const TrainedModel& model,
                              const EligibleSets& eligible,
                              std::vector<size_t> rules, size_t max_rules,
                              const util::parallel::Options& par_opt) {
  std::vector<double> score(model.constraints.size(), 0.0);
  util::parallel::ParallelFor(
      rules.size(),
      [&](size_t idx) {
        size_t r = rules[idx];
        score[r] = static_cast<double>(eligible[r].size()) /
                   (model.constraints[r].fpr + 1e-4);
      },
      par_opt);
  std::stable_sort(rules.begin(), rules.end(),
                   [&](size_t a, size_t b) { return score[a] > score[b]; });
  rules.resize(max_rules);
  std::sort(rules.begin(), rules.end());
  return rules;
}

// Builds the CSS/FSS LP (paper Eq. 14-18) over `rules`, solves it and
// rounds it (Algorithm 1, lines 4-7) into `result`.
void SolveAndRound(const TrainedModel& model, const SelectionOptions& options,
                   const EligibleSets& eligible,
                   const std::vector<size_t>& rules, SelectionResult* result) {
  // Rows: one coverage row per synthetic column (y_j <= sum of covering
  // x_i), then the size budget, then the FPR budget. A column no rule
  // covers leaves an empty row, which the solver prices at zero cost.
  lp::LinearProgram skeleton;
  for (size_t j = 0; j < model.num_synthetic; ++j) {
    skeleton.AddConstraint(lp::Constraint{});
  }
  lp::Constraint size_row;
  size_row.rhs = static_cast<double>(options.size_budget);
  skeleton.AddConstraint(std::move(size_row));
  lp::Constraint fpr_row;
  fpr_row.rhs = options.fpr_budget;
  skeleton.AddConstraint(std::move(fpr_row));
  lp::RevisedSimplex engine(skeleton);

  // Columns in rule order, each x_i preceded by the y_j it is the first
  // to cover.
  std::vector<uint32_t> y_var_of_j(model.num_synthetic, kNoVar);
  std::vector<size_t> x_vars;
  x_vars.reserve(rules.size());
  std::vector<std::pair<size_t, double>> terms;
  for (size_t r : rules) {
    terms.clear();
    for (uint32_t j : eligible[r]) {
      if (y_var_of_j[j] == kNoVar) {
        y_var_of_j[j] =
            static_cast<uint32_t>(engine.AddStructural(1.0, 1.0, {{j, 1.0}}));
      }
      terms.push_back({j, -1.0});
    }
    terms.push_back({model.num_synthetic, 1.0});
    terms.push_back({model.num_synthetic + 1, model.constraints[r].fpr});
    x_vars.push_back(engine.AddStructural(PerturbObjective(r), 1.0, terms));
  }

  result->lp_status = engine.SolveFromScratch();
  result->lp_num_variables = engine.num_structurals();
  result->lp_num_rows = engine.num_rows();
  if (result->lp_status != lp::SolveStatus::kOptimal) return;
  lp::Solution sol;
  engine.Extract(&sol);
  result->lp_objective = sol.objective;
  util::Rng rng(options.seed);
  for (size_t k = 0; k < rules.size(); ++k) {
    double x = Snap01(std::clamp(sol.values[x_vars[k]], 0.0, 1.0));
    if (rng.Bernoulli(x)) result->selected.push_back(rules[k]);
  }
  std::sort(result->selected.begin(), result->selected.end());
}

}  // namespace

SelectionResult SelectWithDelta(const TrainedModel& model,
                                const SelectionOptions& options,
                                double delta) {
  auto t0 = Clock::now();  // at_lint: disable(R2) wall-clock phase timing
  util::parallel::Options par_opt;
  par_opt.num_threads = options.num_threads;
  EligibleSets eligible = Eligible(model, delta, par_opt);
  std::vector<size_t> rules = Dedup(model, eligible);
  SelectionResult result;
  if (rules.empty()) {
    result.lp_status = lp::SolveStatus::kOptimal;
  } else {
    if (rules.size() > options.max_lp_variables) {
      rules = Prefilter(model, eligible, std::move(rules),
                        options.max_lp_variables, par_opt);
    }
    SolveAndRound(model, options, eligible, rules, &result);
  }
  // at_lint: disable(R2) wall-clock phase timing
  result.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return result;
}

SelectionResult CoarseSelect(const TrainedModel& model,
                             const SelectionOptions& options) {
  return SelectWithDelta(model, options, /*delta=*/1.0);
}

SelectionResult FineSelect(const TrainedModel& model,
                           const SelectionOptions& options) {
  return SelectWithDelta(model, options, options.delta);
}

SelectionResult CoarseThenFineSelect(const TrainedModel& model,
                                     const SelectionOptions& options,
                                     SelectionResult* coarse_out) {
  if (coarse_out != nullptr) *coarse_out = CoarseSelect(model, options);
  return FineSelect(model, options);
}

}  // namespace autotest::core
