#ifndef AUTOTEST_TYPEDET_SHIPPED_ZOOS_H_
#define AUTOTEST_TYPEDET_SHIPPED_ZOOS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "typedet/cta_zoo.h"

namespace autotest::typedet {

/// One built-in zoo's trained weights, compiled into at_typedet. At build
/// time cta_zoo_gen trains the zoo from its config and writes the table
/// (cta_zoo_weights.cc in the build tree) with every double as an exact
/// hexfloat; the fields mirror PackedZooWeights.
struct ShippedZooTable {
  std::string_view name;
  std::span<const char* const> type_names;
  size_t feature_dim;
  std::span<const double> wt;
  std::span<const double> biases;
  std::span<const uint8_t> trained;
};

extern const ShippedZooTable kShippedSherlockSim;
extern const ShippedZooTable kShippedDoduoSim;

/// Process-shared instances of the built-in zoos, built on first use from
/// the compiled tables after checking each table's name, type names and
/// feature dim against SherlockSimConfig() / DoduoSimConfig(), so a table
/// generated from other sources fails here instead of scoring. The zoos
/// are pure functions of those fixed configs, so every
/// EvalFunctionSet::Build reuses one instance — and with it the warm
/// per-value score cache. Thread-safe (magic statics + internally
/// synchronized caches).
std::shared_ptr<CtaModelZoo> SharedSherlockSim();
std::shared_ptr<CtaModelZoo> SharedDoduoSim();

}  // namespace autotest::typedet

#endif  // AUTOTEST_TYPEDET_SHIPPED_ZOOS_H_
