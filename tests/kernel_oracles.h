#ifndef AUTOTEST_TESTS_KERNEL_ORACLES_H_
#define AUTOTEST_TESTS_KERNEL_ORACLES_H_

// The plain loops the two first-sight kernels replaced, kept as test
// oracles: the optimized kernels must reproduce them bit for bit.

#include <cmath>
#include <cstddef>
#include <string_view>
#include <vector>

#include "ml/features.h"
#include "ml/logistic_regression.h"
#include "typedet/cta_zoo.h"

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

}  // namespace autotest::oracle

#endif  // AUTOTEST_TESTS_KERNEL_ORACLES_H_
