#include "core/auto_test.h"

#include <numeric>

#include "util/check.h"

namespace autotest::core {

const char* VariantName(Variant variant) {
  switch (variant) {
    case Variant::kAllConstraints:
      return "all-constraints";
    case Variant::kCoarseSelect:
      return "coarse-select";
    case Variant::kFineSelect:
      return "fine-select";
  }
  return "unknown";
}

AutoTest AutoTest::Train(const table::Corpus& corpus,
                         const AutoTestConfig& config) {
  AutoTest at;
  at.config_ = config;
  at.evals_ = std::make_unique<typedet::EvalFunctionSet>(
      typedet::EvalFunctionSet::Build(corpus, config.eval_options));
  at.model_ = TrainAutoTest(corpus, *at.evals_, config.train_options);
  return at;
}

SelectionResult AutoTest::Select(
    Variant variant, const SelectionOptions* override_options) const {
  const SelectionOptions& opt =
      override_options != nullptr ? *override_options
                                  : config_.selection_options;
  switch (variant) {
    case Variant::kAllConstraints: {
      SelectionResult r;
      r.selected.resize(model_.constraints.size());
      std::iota(r.selected.begin(), r.selected.end(), 0);
      r.lp_status = lp::SolveStatus::kOptimal;
      return r;
    }
    case Variant::kCoarseSelect:
      return CoarseSelect(model_, opt);
    case Variant::kFineSelect:
      return FineSelect(model_, opt);
  }
  AT_CHECK(false);
  return SelectionResult{};
}

SdcPredictor AutoTest::MakePredictor(
    Variant variant, const SelectionOptions* override_options) const {
  return MakePredictorFor(Select(variant, override_options).selected);
}

SdcPredictor AutoTest::MakePredictorFor(
    const std::vector<size_t>& rule_indices) const {
  std::vector<Sdc> rules;
  rules.reserve(rule_indices.size());
  for (size_t i : rule_indices) {
    AT_CHECK(i < model_.constraints.size());
    rules.push_back(model_.constraints[i]);
  }
  return SdcPredictor(std::move(rules));
}

}  // namespace autotest::core
