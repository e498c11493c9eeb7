#include "core/predictor.h"

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
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

bool TestBit(const uint32_t* bits, size_t bit) {
  return ((bits[bit / 32] >> (bit % 32)) & 1u) != 0;
}

void SetBit(uint32_t* bits, size_t bit) { bits[bit / 32] |= 1u << (bit % 32); }

}  // namespace

// One evaluation function's share of the plan. Bit numbers index a value's
// comparison bits: one *within* bit per distinct d_in, then one *beyond*
// bit per rule.
struct SdcPredictor::Group {
  // One distinct (d_in, m) pre-condition, checked once per column.
  struct Precondition {
    size_t within_bit;
    double m;
  };
  // One rule in rule order: its pre-condition and its beyond bit.
  struct Rule {
    size_t index;  // into rules_
    size_t precondition;
    size_t beyond_bit;
  };

  // Set on the first group of each plan_ source: the source whose
  // misses this group scores.
  std::optional<size_t> source;
  std::vector<double> d_ins;  // within bit of d_ins[k]: first_bit + k
  size_t first_bit = 0;
  std::vector<Precondition> preconditions;
  std::vector<Rule> rules;
};

SdcPredictor::SdcPredictor(std::vector<Sdc> rules) {
  rules_.reserve(rules.size());
  for (Sdc& rule : rules) {
    if (!IsServableRule(rule)) {
      ++skipped_rules_;
      continue;
    }
    rules_.push_back(std::move(rule));
  }
  metrics::Registry& registry = metrics::Registry::Global();
  if (skipped_rules_ > 0) {
    registry.GetCounter(metrics::kMPredictorRulesSkipped)
        .Increment(static_cast<uint64_t>(skipped_rules_));
  }
  memo_ = std::make_unique<util::RowCache>(
      registry.GetGauge(metrics::kMPredictorMemoBytes),
      registry.GetCounter(metrics::kMPredictorMemoClears));

  // Groups in rule order, one per evaluation function.
  std::unordered_map<const typedet::DomainEvalFunction*, size_t> group_of;
  std::vector<const typedet::DomainEvalFunction*> evals;
  for (size_t r = 0; r < rules_.size(); ++r) {
    const Sdc& rule = rules_[r];
    explanations_.push_back(rule.Describe());
    auto [it, added] = group_of.try_emplace(rule.eval, groups_.size());
    if (added) {
      groups_.emplace_back();
      evals.push_back(rule.eval);
    }
    Group& group = groups_[it->second];
    size_t within = 0;
    while (within < group.d_ins.size() && group.d_ins[within] != rule.d_in) {
      ++within;
    }
    if (within == group.d_ins.size()) group.d_ins.push_back(rule.d_in);
    size_t pre = 0;
    while (pre < group.preconditions.size() &&
           !(group.preconditions[pre].within_bit == within &&
             group.preconditions[pre].m == rule.m)) {
      ++pre;
    }
    if (pre == group.preconditions.size()) {
      group.preconditions.push_back({within, rule.m});
    }
    group.rules.push_back({r, pre, group.rules.size()});
  }

  // Bit numbers: each group's within bits, then its beyond bits.
  size_t bits = 0;
  for (Group& group : groups_) {
    group.first_bit = bits;
    for (auto& pre : group.preconditions) pre.within_bit += bits;
    bits += group.d_ins.size();
    for (auto& rule : group.rules) rule.beyond_bit += bits;
    bits += group.rules.size();
  }
  words_ = (bits + 31) / 32;

  // The groups' functions, planned. Each source is scored at its first
  // group, where its first run begins: a gate that fails ends the walk,
  // so that group always runs before the source's others.
  plan_ = typedet::PlanScoring(evals);
  for (size_t s = 0; s < plan_.sources.size(); ++s) {
    groups_[plan_.sources[s].runs.front().front()].source = s;
  }
}

SdcPredictor::SdcPredictor(SdcPredictor&&) noexcept = default;
SdcPredictor& SdcPredictor::operator=(SdcPredictor&&) noexcept = default;
SdcPredictor::~SdcPredictor() = default;

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
  static metrics::Counter& memo_hits = metrics::Registry::Global()
      .GetCounter(metrics::kMPredictorMemoHits);
  static metrics::Counter& memo_misses = metrics::Registry::Global()
      .GetCounter(metrics::kMPredictorMemoMisses);
  columns_checked.Increment();
  BudgetedPrediction result;
  result.groups_total = groups_.size();
  if (column.values.empty() || groups_.empty()) return result;
  const table::DistinctValues distinct = table::Distinct(column);
  const size_t n = distinct.size();
  const std::vector<std::string_view> views(distinct.values.begin(),
                                            distinct.values.end());

  // Every value's comparison bits: the memo's for a hit, computed below
  // for a miss, each plan source at its first group.
  std::vector<uint32_t> bits(n * words_, 0);
  std::vector<size_t> misses;
  memo_->Lookup(views, words_, bits.data(), /*ok=*/nullptr, &misses);
  memo_hits.Increment(n - misses.size());
  memo_misses.Increment(misses.size());
  std::vector<std::string_view> miss_views;
  miss_views.reserve(misses.size());
  for (size_t i : misses) miss_views.push_back(views[i]);
  typedet::BackendRows rows;
  std::vector<double> dist;
  // Sets the misses' bits of group `g` from their distances `d`.
  auto set_bits = [&](size_t g, std::span<const double> d) {
    const Group& h = groups_[g];
    for (size_t j = 0; j < misses.size(); ++j) {
      uint32_t* row = bits.data() + misses[j] * words_;
      for (size_t k = 0; k < h.d_ins.size(); ++k) {
        if (d[j] <= h.d_ins[k]) SetBit(row, h.first_bit + k);
      }
      for (const Group::Rule& rule : h.rules) {
        if (d[j] > rules_[rule.index].d_out) SetBit(row, rule.beyond_bit);
      }
    }
  };

  // Best detection per distinct value index; a value is flagged once its
  // best confidence is above 0.
  std::vector<double> best_conf(n, 0.0);
  std::vector<size_t> best_rule(n, 0);
  std::vector<bool> holds;
  const double total = static_cast<double>(distinct.total);
  const bool charges = budget != nullptr && budget->resources != nullptr;
  const std::string charge_what =
      charges ? "rule-group evaluation for column '" + column.name + "'"
              : std::string();

  for (const Group& group : groups_) {
    // The deadline gate: one rule group (one evaluation function over all
    // distinct values) is the unit of work a budget can cut between.
    if (budget != nullptr && budget->clock != nullptr &&
        budget->clock->NowMicros() >= budget->deadline_micros) {
      result.expired = true;
      break;
    }
    // The resource gate: candidate evaluation costs one cell-work unit
    // per distinct value per group, charged before any distance is
    // computed so an over-budget column stops here, not after the work.
    if (charges) {
      util::Status charged = budget->resources->TryCharge(
          util::ResourceKind::kCells, n, charge_what);
      if (!charged.ok()) {
        if (resource_error != nullptr) *resource_error = std::move(charged);
        break;
      }
    }
    ++result.groups_evaluated;

    // The misses' distances through every function of this group's
    // source, one per value per function, and from them their bits.
    if (!misses.empty() && group.source.has_value()) {
      typedet::ScoreSource(plan_, *group.source, miss_views,
                           util::MemoWrite::kReadOnly, &rows, &dist,
                           set_bits);
    }

    // Appendix B.2: each distinct pre-condition once.
    holds.assign(group.preconditions.size(), false);
    for (size_t p = 0; p < group.preconditions.size(); ++p) {
      const Group::Precondition& pre = group.preconditions[p];
      uint64_t covered = 0;
      for (size_t i = 0; i < n; ++i) {
        if (TestBit(bits.data() + i * words_, pre.within_bit)) {
          covered += distinct.counts[i];
        }
      }
      holds[p] = static_cast<double>(covered) >= pre.m * total - 1e-9;
    }
    for (const Group::Rule& rule : group.rules) {
      if (!holds[rule.precondition]) continue;
      const double confidence = rules_[rule.index].confidence;
      for (size_t i = 0; i < n; ++i) {
        if (TestBit(bits.data() + i * words_, rule.beyond_bit) &&
            confidence > best_conf[i]) {
          best_conf[i] = confidence;
          best_rule[i] = rule.index;
        }
      }
    }
  }

  // Only a column every group ran on has every bit of its misses.
  if (!misses.empty() && result.groups_evaluated == groups_.size()) {
    memo_->Insert(views, misses, words_, bits.data(), /*ok=*/nullptr);
  }

  // Expand distinct-value detections to rows.
  std::vector<CellDetection>& out = result.detections;
  for (size_t row = 0; row < column.values.size(); ++row) {
    const size_t i = distinct.row_index[row];
    if (best_conf[i] == 0.0) continue;
    CellDetection d;
    d.row = row;
    d.value = column.values[row];
    d.confidence = best_conf[i];
    d.rule_index = best_rule[i];
    d.explanation = explanations_[best_rule[i]];
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
