#ifndef AUTOTEST_TYPEDET_CTA_ZOO_H_
#define AUTOTEST_TYPEDET_CTA_ZOO_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ml/features.h"
#include "ml/logistic_regression.h"
#include "util/row_cache.h"

namespace autotest::typedet {

/// Configuration of one CTA classifier zoo (a simulated Sherlock / Doduo).
struct CtaZooConfig {
  std::string name;  // "sherlock-sim" | "doduo-sim"
  /// Gazetteer domain names to train one binary classifier for.
  std::vector<std::string> type_names;
  ml::FeatureConfig feature_config;
  ml::LogRegConfig train_config;
  /// Negative examples sampled per type (from other domains).
  size_t negatives_per_type = 500;
  uint64_t seed = 1;
};

/// A zoo's per-type classifiers packed for all-type scoring.
struct PackedZooWeights {
  /// Transposed weights: wt[j * num_types + t] is type t's weight on
  /// feature j.
  std::vector<double> wt;
  std::vector<double> biases;
  /// 0 marks a type without a trained classifier; it scores 0.5.
  std::vector<uint8_t> trained;
};

/// A zoo of per-type binary classifiers (CTA as per the paper's Section 3:
/// multi-class CTA viewed as one binary classifier per type). Classifiers
/// are trained on gazetteer *head* values, which reproduces the real-world
/// miscalibration on rare values: a valid-but-uncommon member can score
/// low even when the column-level (macro) prediction is right.
class CtaModelZoo {
 public:
  /// Trains all classifiers (parallelized over types). Deterministic in
  /// the config seed. Products score with the pre-trained zoos of
  /// typedet/shipped_zoos.h; only the build-time generator that produces
  /// their weights and the test that checks them train.
  static std::unique_ptr<CtaModelZoo> Train(const CtaZooConfig& config);

  /// A zoo scoring with already-trained weights, sized for the config's
  /// types and feature dim.
  static std::unique_ptr<CtaModelZoo> FromWeights(CtaZooConfig config,
                                                  PackedZooWeights weights);

  /// All-type score rows for a block of values: writes values.size()
  /// row-major num_types()-wide rows into `out`, row i holding
  /// P(values[i] belongs to type t) in [0, 1] for every type t in order.
  /// The zoo's only scoring entry point: a value's scores are computed for
  /// all types at once on first sight (feature extraction dominates the
  /// cost and is shared across the zoo's types) and, with
  /// util::MemoWrite::kInsert, memoized per value until the memo next
  /// clears (util::RowCache). kReadOnly reads the memo and inserts
  /// nothing.
  void ScoreRows(std::span<const std::string_view> values, float* out,
                 util::MemoWrite write) const;

  const std::string& name() const { return config_.name; }
  const std::vector<std::string>& type_names() const {
    return config_.type_names;
  }
  size_t num_types() const { return config_.type_names.size(); }
  size_t feature_dim() const { return extractor_.dim(); }
  const PackedZooWeights& weights() const { return weights_; }

 private:
  CtaModelZoo(CtaZooConfig config, PackedZooWeights weights)
      : config_(std::move(config)),
        extractor_(config_.feature_config),
        weights_(std::move(weights)) {}

  /// All-type scores for one feature vector through the packed transposed
  /// weight matrix, written to scores[0, num_types()): feature-index
  /// outer, type inner, so every type's accumulation order matches
  /// LogisticRegression::Predict exactly (bit-identical scores) while the
  /// inner loop runs independent multiply-add chains across types instead
  /// of one serial dot product per model. Zero features are skipped, and
  /// the accumulators are a per-thread buffer.
  void ScoreAllTypes(std::span<const float> features, float* scores) const;

  CtaZooConfig config_;
  ml::FeatureExtractor extractor_;
  PackedZooWeights weights_;
  mutable util::RowCache cache_;  // all-type scores per value
};

/// Configs of the two built-in zoos. Sherlock-sim covers a subset of NL
/// domains (Sherlock: 78 DBpedia types); Doduo-sim covers all NL domains
/// with a different feature space (Doduo: 121 Freebase types).
CtaZooConfig SherlockSimConfig();
CtaZooConfig DoduoSimConfig();

}  // namespace autotest::typedet

#endif  // AUTOTEST_TYPEDET_CTA_ZOO_H_
