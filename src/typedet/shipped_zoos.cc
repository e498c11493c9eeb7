#include "typedet/shipped_zoos.h"

#include <algorithm>

#include "util/check.h"

namespace autotest::typedet {

namespace {

std::unique_ptr<CtaModelZoo> LoadShipped(CtaZooConfig config,
                                         const ShippedZooTable& table) {
  // The build generates the table from this same config; a mismatch means
  // the build tree holds a table from other sources.
  AT_CHECK_MSG(table.name == config.name, "stale CTA zoo table: name");
  AT_CHECK_MSG(std::equal(table.type_names.begin(), table.type_names.end(),
                          config.type_names.begin(), config.type_names.end()),
               "stale CTA zoo table: type names");
  AT_CHECK_MSG(
      table.feature_dim == ml::FeatureExtractor(config.feature_config).dim(),
      "stale CTA zoo table: feature dim");
  PackedZooWeights weights;
  weights.wt.assign(table.wt.begin(), table.wt.end());
  weights.biases.assign(table.biases.begin(), table.biases.end());
  weights.trained.assign(table.trained.begin(), table.trained.end());
  return CtaModelZoo::FromWeights(std::move(config), std::move(weights));
}

}  // namespace

std::shared_ptr<CtaModelZoo> SharedSherlockSim() {
  // Leaky magic static: one process-wide instance (with its warm score
  // cache) serves every EvalFunctionSet::Build.
  static const auto& zoo = *new std::shared_ptr<CtaModelZoo>(
      LoadShipped(SherlockSimConfig(), kShippedSherlockSim));
  return zoo;
}

std::shared_ptr<CtaModelZoo> SharedDoduoSim() {
  static const auto& zoo = *new std::shared_ptr<CtaModelZoo>(
      LoadShipped(DoduoSimConfig(), kShippedDoduoSim));
  return zoo;
}

}  // namespace autotest::typedet
