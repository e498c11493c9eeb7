#include "core/predictor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <typeinfo>
#include <unordered_map>

#include "embed/vector_math.h"
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

constexpr size_t kNoBackend = SIZE_MAX;

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
  // Functions whose distances this group computes for a block of misses
  // in one GroupDistanceFromRows call, and the groups that own them.
  struct Run {
    std::vector<const typedet::DomainEvalFunction*> evals;
    std::vector<size_t> groups;
  };

  const typedet::DomainEvalFunction* eval = nullptr;
  // Slot of the backend's rows, or kNoBackend for a function scored value
  // by value through Distance.
  size_t backend = kNoBackend;
  // True for the first group reading its backend, which computes the
  // misses' rows for all of them.
  bool computes_rows = false;
  // Empty for an embedding function whose distances an earlier group of
  // its model computed.
  std::vector<Run> runs;
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
  for (size_t r = 0; r < rules_.size(); ++r) {
    const Sdc& rule = rules_[r];
    explanations_.push_back(rule.Describe());
    auto [it, added] = group_of.try_emplace(rule.eval, groups_.size());
    if (added) {
      groups_.emplace_back();
      groups_.back().eval = rule.eval;
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

  // Backends in first-group order; the first group of a backend computes
  // the misses' rows. Each group computes its own distances, except that
  // the first group of an embedding model computes those of every group of
  // that model with its dynamic type, in runs of at most
  // embed::kMaxCentroidGroup, one pass over the rows each.
  std::vector<const void*> backends;
  std::vector<bool> scored(groups_.size(), false);
  for (size_t g = 0; g < groups_.size(); ++g) {
    Group& group = groups_[g];
    const void* backend = group.eval->backend();
    if (backend != nullptr) {
      auto it = std::find(backends.begin(), backends.end(), backend);
      group.computes_rows = it == backends.end();
      group.backend = static_cast<size_t>(it - backends.begin());
      if (group.computes_rows) backends.push_back(backend);
    }
    if (scored[g]) continue;
    if (backend == nullptr ||
        group.eval->family() != typedet::Family::kEmbedding) {
      group.runs.push_back({{group.eval}, {g}});
      continue;
    }
    for (size_t h = g; h < groups_.size(); ++h) {
      const typedet::DomainEvalFunction& eval = *groups_[h].eval;
      if (scored[h] || eval.backend() != backend ||
          eval.family() != typedet::Family::kEmbedding ||
          typeid(eval) != typeid(*group.eval)) {
        continue;
      }
      if (group.runs.empty() ||
          group.runs.back().evals.size() == embed::kMaxCentroidGroup) {
        group.runs.emplace_back();
      }
      group.runs.back().evals.push_back(&eval);
      group.runs.back().groups.push_back(h);
      scored[h] = true;
    }
  }
  num_backends_ = backends.size();
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
  // group by group for a miss.
  std::vector<uint32_t> bits(n * words_, 0);
  std::vector<size_t> misses;
  memo_->Lookup(views, words_, bits.data(), /*ok=*/nullptr, &misses);
  memo_hits.Increment(n - misses.size());
  memo_misses.Increment(misses.size());
  std::vector<std::string_view> miss_views;
  miss_views.reserve(misses.size());
  for (size_t i : misses) miss_views.push_back(views[i]);
  // Each backend's rows for the misses, computed at the first of its
  // groups, which always runs before its siblings.
  std::vector<typedet::BackendRows> rows(misses.empty() ? 0 : num_backends_);
  std::vector<double> dist(misses.empty()
                               ? 0
                               : embed::kMaxCentroidGroup * misses.size());
  std::vector<double*> outs;
  // Sets the misses' bits of group `h` from their distances `d`.
  auto set_bits = [&](const Group& h, const double* d) {
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

    // The misses' distances, one per value per evaluation function, and
    // from them their bits.
    if (!misses.empty()) {
      if (group.backend == kNoBackend) {
        for (size_t j = 0; j < misses.size(); ++j) {
          dist[j] = group.eval->Distance(miss_views[j]);
        }
        set_bits(group, dist.data());
      } else {
        typedet::BackendRows& backend_rows = rows[group.backend];
        if (group.computes_rows) {
          group.eval->ComputeBackendRows(miss_views, &backend_rows,
                                         util::MemoWrite::kReadOnly);
        }
        for (const Group::Run& run : group.runs) {
          outs.clear();
          for (size_t g = 0; g < run.evals.size(); ++g) {
            outs.push_back(dist.data() + g * misses.size());
          }
          run.evals[0]->GroupDistanceFromRows(run.evals, backend_rows, outs);
          for (size_t g = 0; g < run.groups.size(); ++g) {
            set_bits(groups_[run.groups[g]], outs[g]);
          }
        }
      }
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
