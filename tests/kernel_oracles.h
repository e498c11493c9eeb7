#ifndef AUTOTEST_TESTS_KERNEL_ORACLES_H_
#define AUTOTEST_TESTS_KERNEL_ORACLES_H_

// The plain loops the optimized kernels replaced, kept as test oracles:
// the kernels must reproduce them bit for bit.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "ml/features.h"
#include "ml/logistic_regression.h"
#include "pattern/pattern.h"
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

}  // namespace autotest::oracle

#endif  // AUTOTEST_TESTS_KERNEL_ORACLES_H_
