#include "core/predictor.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string_view>
#include <unordered_map>

#include "util/failpoint.h"
#include "util/metrics.h"

namespace autotest::core {

namespace {

// A rule the online stage can serve: resolved eval and sane parameters.
// Anything else is dropped with a counted warning (graceful degradation)
// rather than aborting the serve path.
bool IsServableRule(const Sdc& rule) {
  return rule.eval != nullptr && std::isfinite(rule.d_in) &&
         std::isfinite(rule.d_out) && std::isfinite(rule.m) &&
         std::isfinite(rule.confidence) && rule.d_in <= rule.d_out;
}

}  // namespace

SdcPredictor::SdcPredictor(std::vector<Sdc> rules) {
  rules_.reserve(rules.size());
  for (Sdc& rule : rules) {
    if (!IsServableRule(rule)) {
      ++skipped_rules_;
      continue;
    }
    rules_.push_back(std::move(rule));
  }
  if (skipped_rules_ > 0) {
    metrics::Registry::Global()
        .GetCounter(metrics::kMPredictorRulesSkipped)
        .Increment(static_cast<uint64_t>(skipped_rules_));
  }
  std::unordered_map<const typedet::DomainEvalFunction*, size_t> group_of;
  for (size_t r = 0; r < rules_.size(); ++r) {
    auto it = group_of.find(rules_[r].eval);
    if (it == group_of.end()) {
      group_of.emplace(rules_[r].eval, groups_.size());
      groups_.push_back(Group{rules_[r].eval, {r}});
    } else {
      groups_[it->second].rule_ids.push_back(r);
    }
  }
}

std::vector<CellDetection> SdcPredictor::Predict(
    const table::Column& column) const {
  return PredictInternal(column, nullptr, nullptr).detections;
}

BudgetedPrediction SdcPredictor::PredictInternal(
    const table::Column& column, const PredictBudget* budget,
    util::Status* resource_error) const {
  static metrics::Counter& columns_checked =
      metrics::Registry::Global().GetCounter(
          metrics::kMPredictorColumnsChecked);
  static metrics::Counter& detections = metrics::Registry::Global()
      .GetCounter(metrics::kMPredictorDetections);
  columns_checked.Increment();
  BudgetedPrediction result;
  result.groups_total = groups_.size();
  std::vector<CellDetection>& out = result.detections;
  if (column.values.empty()) return result;
  table::DistinctValues distinct = table::Distinct(column);

  // Best detection per distinct value index.
  std::vector<double> best_conf(distinct.values.size(), 0.0);
  std::vector<size_t> best_rule(distinct.values.size(), 0);
  std::vector<bool> flagged(distinct.values.size(), false);

  // Stable views of the distinct values, the block each backend computes
  // its rows for.
  std::vector<std::string_view> views(distinct.values.begin(),
                                      distinct.values.end());
  // Each backend's rows for the distinct values, computed at the first of
  // its groups that passes the gates and reused by its sibling groups.
  std::vector<std::pair<const void*, typedet::BackendRows>> backend_rows;

  for (const Group& group : groups_) {
    // The deadline gate: one rule group (one evaluation function over all
    // distinct values) is the unit of work a budget can cut between.
    if (budget != nullptr && budget->clock != nullptr &&
        budget->clock->NowMicros() >= budget->deadline_micros) {
      result.expired = true;
      break;
    }
    // The resource gate: candidate evaluation costs one cell-work unit
    // per distinct value per group, charged before the distances are
    // computed so an over-budget column stops here, not after the work.
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
    // One distance computation per distinct value per evaluation function.
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
        group.eval->ComputeBackendRows(views, &rows->second);
      }
      group.eval->DistanceFromRows(rows->second, dist);
    }
    double total = static_cast<double>(distinct.total);

    // Appendix B.2: evaluate each distinct pre-condition once.
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
      const Sdc& rule = rules_[r];
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

  // Expand distinct-value detections to rows.
  std::unordered_map<std::string, size_t> value_index;
  for (size_t i = 0; i < distinct.values.size(); ++i) {
    value_index.emplace(distinct.values[i], i);
  }
  for (size_t row = 0; row < column.values.size(); ++row) {
    size_t i = value_index.at(column.values[row]);
    if (!flagged[i]) continue;
    CellDetection d;
    d.row = row;
    d.value = column.values[row];
    d.confidence = best_conf[i];
    d.rule_index = best_rule[i];
    d.explanation = rules_[best_rule[i]].Describe();
    out.push_back(std::move(d));
  }
  detections.Increment(out.size());
  return result;
}

util::Result<BudgetedPrediction> SdcPredictor::TryPredict(
    const table::Column& column, const PredictBudget& budget) const {
  if (auto injected = util::FailpointFiresCode(
          util::kFpPredictorColumn, util::StatusCode::kResourceExhausted)) {
    return util::InjectedFault(*injected, util::kFpPredictorColumn)
        .WithContext("predicting column '" + column.name + "'");
  }
  util::Status resource_error;
  BudgetedPrediction prediction =
      PredictInternal(column, &budget, &resource_error);
  if (!resource_error.ok()) {
    return std::move(resource_error)
        .WithContext("predicting column '" + column.name + "'");
  }
  return prediction;
}

}  // namespace autotest::core

