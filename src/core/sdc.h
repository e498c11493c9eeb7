#ifndef AUTOTEST_CORE_SDC_H_
#define AUTOTEST_CORE_SDC_H_

#include <cstddef>
#include <string>
#include <vector>

#include "stats/statistics.h"
#include "table/column.h"
#include "typedet/domain_eval.h"

namespace autotest::core {

/// A Semantic-Domain Constraint (paper Definition 2): r = (P, S, c) with
/// parameters (f_t, d_in, d_out, m).
///
///   pre-condition  P: at least an m-fraction of column values v satisfy
///                     f_t(v) <= d_in (the "inner ball");
///   post-condition S: values with f_t(v) > d_out (outside the "outer
///                     ball") are predicted as errors;
///   confidence     c: Wilson-lower-bounded probability that a triggered
///                     detection is not a false positive (paper Eq. 9).
struct Sdc {
  /// Index of the domain-evaluation function in the owning EvalFunctionSet.
  size_t eval_index = 0;
  /// Borrowed pointer into the EvalFunctionSet (outlives the Sdc).
  const typedet::DomainEvalFunction* eval = nullptr;

  double d_in = 0.0;
  double d_out = 1.0;
  double m = 1.0;

  double confidence = 0.0;
  /// Estimated false-positive rate |C_{C,T}| / |C| (Section 5.3).
  double fpr = 0.0;
  /// Statistical-test artifacts from offline assessment (Section 5.2).
  stats::ContingencyTable contingency;
  double cohens_h = 0.0;
  double chi_squared_p = 1.0;

  /// Table-1-style human-readable rendering, e.g.
  /// "85% col vals have their sbert-sim distance to "seattle" < 1.2".
  std::string Describe() const;
};

/// Weighted distance profile of one column under one evaluation function:
/// distances of distinct values plus their multiplicities. The sorted form
/// lets every (d_in, d_out, m) grid cell be evaluated with binary searches.
struct ColumnDistanceProfile {
  std::vector<double> sorted_distances;  // parallel to sorted_weights
  std::vector<size_t> sorted_weights;
  std::vector<size_t> prefix_weights;  // cumulative weights
  size_t total_weight = 0;

  /// Number of values (with multiplicity) whose distance is <= d.
  size_t CountWithin(double d) const;
  /// True if a fraction >= m of values lies within distance d_in.
  bool PreconditionHolds(double d_in, double m) const;
  /// Number of values (with multiplicity) with distance > d_out.
  size_t CountBeyond(double d_out) const;
};

/// Computes the distance profile of a column under one evaluation function.
ColumnDistanceProfile ComputeProfile(const typedet::DomainEvalFunction& eval,
                                     const table::DistinctValues& distinct);

}  // namespace autotest::core

#endif  // AUTOTEST_CORE_SDC_H_
