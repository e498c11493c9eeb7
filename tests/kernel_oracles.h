#ifndef AUTOTEST_TESTS_KERNEL_ORACLES_H_
#define AUTOTEST_TESTS_KERNEL_ORACLES_H_

// The plain loops the optimized kernels replaced, kept as test oracles:
// the kernels must reproduce them bit for bit.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/predictor.h"
#include "core/sdc.h"
#include "ml/features.h"
#include "ml/logistic_regression.h"
#include "pattern/pattern.h"
#include "table/column.h"
#include "typedet/cta_zoo.h"
#include "typedet/domain_eval.h"
#include "util/budget.h"
#include "util/status.h"

namespace autotest::oracle {

/// One value's Euclidean distance to one centroid: the squared
/// differences summed in double over the dimensions in order, then the
/// square root. embed::GroupedDistances must match it at every group size.
inline double EuclideanDistanceRaw(const float* a, const float* b,
                                   size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    s += d * d;
  }
  return std::sqrt(s);
}

/// A zoo's all-type scores for one value through the dense packed matmul:
/// every feature, zero or not, times every type's weight, in feature
/// order. CtaModelZoo::ScoreRows, which skips zero features, must match
/// it.
inline std::vector<float> DenseScoreAllTypes(
    const ml::FeatureExtractor& extractor,
    const typedet::PackedZooWeights& weights, std::string_view value) {
  const std::vector<float> features = extractor.Extract(value);
  const size_t nt = weights.biases.size();
  std::vector<double> acc(weights.biases);
  for (size_t j = 0; j < features.size(); ++j) {
    const double xj = static_cast<double>(features[j]);
    const double* row = &weights.wt[j * nt];
    for (size_t t = 0; t < nt; ++t) acc[t] += row[t] * xj;
  }
  std::vector<float> scores(nt);
  for (size_t t = 0; t < nt; ++t) {
    scores[t] = weights.trained[t] != 0
                    ? static_cast<float>(ml::Sigmoid(acc[t]))
                    : 0.5f;
  }
  return scores;
}

/// The trainer's per-column threshold count before bucket bytes: the
/// weighted count of column values at or under each of the ascending
/// `thresholds`. For every (id, weight) pair the first threshold >= its
/// distance gets a histogram increment (a NaN distance stops at the first,
/// so it counts as within every threshold), and a prefix sum turns the
/// histogram into cumulative counts. ThresholdByte plus CountWithinBytes
/// must give the same counts for a function's d_ins and for its d_outs.
inline void CountWithinThresholds(std::span<const uint32_t> ids,
                                  std::span<const uint32_t> counts,
                                  const std::vector<double>& pool_dist,
                                  const std::vector<double>& thresholds,
                                  uint64_t* within) {
  const size_t nt = thresholds.size();
  // hist[b]: weight whose first satisfied threshold is b (nt = none).
  std::vector<uint64_t> hist(nt + 1, 0);
  for (size_t j = 0; j < ids.size(); ++j) {
    double d = pool_dist[ids[j]];
    size_t b = 0;
    while (b < nt && d > thresholds[b]) ++b;
    hist[b] += counts[j];
  }
  uint64_t acc = 0;
  for (size_t t = 0; t < nt; ++t) {
    acc += hist[t];
    within[t] = acc;
  }
}

/// Backtracking pattern match over (atom index, value position) that
/// pushes every stop of an atom into a vector and tries them longest
/// first. Pattern::Matches must return the same boolean.
inline bool MatchFromStops(const std::vector<pattern::Atom>& atoms,
                           size_t ai, std::string_view value, size_t pos) {
  if (ai == atoms.size()) return pos == value.size();
  const pattern::Atom& a = atoms[ai];
  size_t taken = 0;
  size_t p = pos;
  while (taken < static_cast<size_t>(a.min_len)) {
    if (p >= value.size() || !a.MatchesChar(value[p])) return false;
    ++p;
    ++taken;
  }
  std::vector<size_t> stops;
  stops.push_back(p);
  while ((a.max_len == pattern::Atom::kUnbounded ||
          taken < static_cast<size_t>(a.max_len)) &&
         p < value.size() && a.MatchesChar(value[p])) {
    ++p;
    ++taken;
    stops.push_back(p);
  }
  for (size_t k = stops.size(); k > 0; --k) {
    if (MatchFromStops(atoms, ai + 1, value, stops[k - 1])) return true;
  }
  return false;
}

inline bool PatternMatchesWithStops(const pattern::Pattern& pattern,
                                    std::string_view value) {
  if (pattern.empty()) return value.empty();
  return MatchFromStops(pattern.atoms(), 0, value, 0);
}

/// The predictor's loop before its compiled plan: `rules` (a predictor's
/// servable rules) grouped by evaluation function in rule order; each group
/// gated by the deadline and charged one cell per distinct value, then
/// scored for every distinct value (a backend's rows computed once per
/// column, at the first of its groups that runs, and read by its
/// siblings); each distinct (d_in, m) pre-condition checked once through a
/// map; and rows expanded through a value map. SdcPredictor::TryPredict
/// (its failpoint aside) must return the same detections, expiry, group
/// counts, status and charges. The rows read the models' memos without
/// inserting, like the predictor's, so the oracle leaves the memos as it
/// found them.
inline core::BudgetedPrediction PredictByGroups(
    const std::vector<core::Sdc>& rules, const table::Column& column,
    const core::PredictBudget* budget, util::Status* resource_error) {
  struct Group {
    const typedet::DomainEvalFunction* eval;
    std::vector<size_t> rule_ids;
  };
  std::vector<Group> groups;
  std::unordered_map<const typedet::DomainEvalFunction*, size_t> group_of;
  for (size_t r = 0; r < rules.size(); ++r) {
    auto it = group_of.find(rules[r].eval);
    if (it == group_of.end()) {
      group_of.emplace(rules[r].eval, groups.size());
      groups.push_back(Group{rules[r].eval, {r}});
    } else {
      groups[it->second].rule_ids.push_back(r);
    }
  }

  core::BudgetedPrediction result;
  result.groups_total = groups.size();
  std::vector<core::CellDetection>& out = result.detections;
  if (column.values.empty()) return result;
  table::DistinctValues distinct = table::Distinct(column);

  // Best detection per distinct value index.
  std::vector<double> best_conf(distinct.values.size(), 0.0);
  std::vector<size_t> best_rule(distinct.values.size(), 0);
  std::vector<bool> flagged(distinct.values.size(), false);

  std::vector<std::string_view> views(distinct.values.begin(),
                                      distinct.values.end());
  std::vector<std::pair<const void*, typedet::BackendRows>> backend_rows;

  for (const Group& group : groups) {
    if (budget != nullptr && budget->clock != nullptr &&
        budget->clock->NowMicros() >= budget->deadline_micros) {
      result.expired = true;
      break;
    }
    if (budget != nullptr && budget->resources != nullptr) {
      util::Status charged = budget->resources->TryCharge(
          util::ResourceKind::kCells, distinct.values.size(),
          "rule-group evaluation for column '" + column.name + "'");
      if (!charged.ok()) {
        if (resource_error != nullptr) *resource_error = std::move(charged);
        break;
      }
    }
    ++result.groups_evaluated;
    std::vector<double> dist(distinct.values.size());
    const void* backend = group.eval->backend();
    if (backend == nullptr) {
      for (size_t i = 0; i < views.size(); ++i) {
        dist[i] = group.eval->Distance(views[i]);
      }
    } else {
      auto rows = std::find_if(
          backend_rows.begin(), backend_rows.end(),
          [&](const auto& entry) { return entry.first == backend; });
      if (rows == backend_rows.end()) {
        rows = backend_rows.emplace(rows, backend, typedet::BackendRows{});
        group.eval->ComputeBackendRows(views, &rows->second,
                                       util::MemoWrite::kReadOnly);
      }
      group.eval->DistanceFromRows(rows->second, dist);
    }
    double total = static_cast<double>(distinct.total);

    std::map<std::pair<double, double>, bool> precond_cache;
    auto precondition = [&](double d_in, double m) {
      auto key = std::make_pair(d_in, m);
      auto it = precond_cache.find(key);
      if (it != precond_cache.end()) return it->second;
      double covered = 0.0;
      for (size_t i = 0; i < distinct.values.size(); ++i) {
        if (dist[i] <= d_in) {
          covered += static_cast<double>(distinct.counts[i]);
        }
      }
      bool holds = covered >= m * total - 1e-9;
      precond_cache.emplace(key, holds);
      return holds;
    };

    for (size_t r : group.rule_ids) {
      const core::Sdc& rule = rules[r];
      if (!precondition(rule.d_in, rule.m)) continue;
      for (size_t i = 0; i < distinct.values.size(); ++i) {
        if (dist[i] > rule.d_out && rule.confidence > best_conf[i]) {
          best_conf[i] = rule.confidence;
          best_rule[i] = r;
          flagged[i] = true;
        }
      }
    }
  }

  std::unordered_map<std::string, size_t> value_index;
  for (size_t i = 0; i < distinct.values.size(); ++i) {
    value_index.emplace(distinct.values[i], i);
  }
  for (size_t row = 0; row < column.values.size(); ++row) {
    size_t i = value_index.at(column.values[row]);
    if (!flagged[i]) continue;
    core::CellDetection d;
    d.row = row;
    d.value = column.values[row];
    d.confidence = best_conf[i];
    d.rule_index = best_rule[i];
    d.explanation = rules[best_rule[i]].Describe();
    out.push_back(std::move(d));
  }
  return result;
}

/// SdcPredictor::TryPredict over PredictByGroups, without the failpoint.
inline util::Result<core::BudgetedPrediction> TryPredictByGroups(
    const std::vector<core::Sdc>& rules, const table::Column& column,
    const core::PredictBudget& budget) {
  util::Status resource_error;
  core::BudgetedPrediction prediction =
      PredictByGroups(rules, column, &budget, &resource_error);
  if (!resource_error.ok()) {
    return std::move(resource_error)
        .WithContext("predicting column '" + column.name + "'");
  }
  return prediction;
}

}  // namespace autotest::oracle

#endif  // AUTOTEST_TESTS_KERNEL_ORACLES_H_
