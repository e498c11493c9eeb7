#ifndef AUTOTEST_ML_FEATURES_H_
#define AUTOTEST_ML_FEATURES_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace autotest::ml {

/// Configuration for hashed character-n-gram features. Different classifier
/// zoos (sherlock-sim vs doduo-sim) use different seeds/dimensions, so their
/// feature spaces — like the real Sherlock and Doduo — are unrelated.
struct FeatureConfig {
  size_t hash_dim = 248;  // n-gram buckets; total dim = hash_dim + kShapeDims
  int min_n = 2;
  int max_n = 3;
  uint64_t seed = 1;
};

/// Extracts a dense feature vector from a cell value: L2-normalized hashed
/// character n-grams (with ^/$ boundary markers) plus a fixed block of shape
/// features (length, digit/alpha/upper/punct ratios, token count, ...).
class FeatureExtractor {
 public:
  static constexpr size_t kShapeDims = 8;

  explicit FeatureExtractor(const FeatureConfig& config) : config_(config) {}

  size_t dim() const { return config_.hash_dim + kShapeDims; }

  /// Computes the feature vector (lowercased input; values are case-folded
  /// before hashing, with case information preserved in shape features).
  std::vector<float> Extract(std::string_view value) const {
    std::vector<float> out;
    Extract(value, &out);
    return out;
  }
  /// The same into `out`, resized to dim(): a caller scoring many values
  /// reuses one vector.
  void Extract(std::string_view value, std::vector<float>* out) const;

  const FeatureConfig& config() const { return config_; }

 private:
  FeatureConfig config_;
};

}  // namespace autotest::ml

#endif  // AUTOTEST_ML_FEATURES_H_
