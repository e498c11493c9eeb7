#include "core/sdc.h"

#include <algorithm>
#include <cstdio>

#include "util/check.h"

namespace autotest::core {

size_t ColumnDistanceProfile::CountWithin(double d) const {
  auto it = std::upper_bound(sorted_distances.begin(), sorted_distances.end(),
                             d);
  size_t idx = static_cast<size_t>(it - sorted_distances.begin());
  return idx == 0 ? 0 : prefix_weights[idx - 1];
}

bool ColumnDistanceProfile::PreconditionHolds(double d_in, double m) const {
  if (total_weight == 0) return false;
  return static_cast<double>(CountWithin(d_in)) >=
         m * static_cast<double>(total_weight) - 1e-9;
}

size_t ColumnDistanceProfile::CountBeyond(double d_out) const {
  return total_weight - CountWithin(d_out);
}

ColumnDistanceProfile ComputeProfile(const typedet::DomainEvalFunction& eval,
                                     const table::DistinctValues& distinct) {
  ColumnDistanceProfile p;
  size_t n = distinct.values.size();
  std::vector<std::pair<double, size_t>> pairs;
  pairs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pairs.emplace_back(eval.Distance(distinct.values[i]), distinct.counts[i]);
  }
  std::sort(pairs.begin(), pairs.end());
  p.sorted_distances.reserve(n);
  p.sorted_weights.reserve(n);
  p.prefix_weights.reserve(n);
  size_t acc = 0;
  for (const auto& [d, w] : pairs) {
    p.sorted_distances.push_back(d);
    p.sorted_weights.push_back(w);
    acc += w;
    p.prefix_weights.push_back(acc);
  }
  p.total_weight = acc;
  AT_CHECK(acc == distinct.total);
  return p;
}

std::string Sdc::Describe() const {
  char buf[320];
  if (eval != nullptr && eval->binary()) {
    std::snprintf(buf, sizeof(buf),
                  "%.0f%% col vals %s (dist=0); errors: values with dist=1 "
                  "(conf=%.2f)",
                  m * 100.0, eval->Describe().c_str(), confidence);
  } else if (eval != nullptr && eval->family() == typedet::Family::kCta) {
    // CTA distances are 1 - classifier score; render in score form like
    // the paper's Table 1 ("85% col vals have country-classifier > 0.75").
    std::snprintf(buf, sizeof(buf),
                  "%.0f%% col vals have %s > %.2f; errors: values with "
                  "score < %.2f (conf=%.2f)",
                  m * 100.0, eval->Describe().c_str(), 1.0 - d_in,
                  1.0 - d_out, confidence);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%.0f%% col vals have %s <= %.3f; errors: values with "
                  "distance > %.3f (conf=%.2f)",
                  m * 100.0,
                  eval != nullptr ? eval->Describe().c_str() : "<null>", d_in,
                  d_out, confidence);
  }
  return buf;
}

}  // namespace autotest::core
