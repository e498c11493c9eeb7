#ifndef AUTOTEST_CORE_THRESHOLD_BYTES_H_
#define AUTOTEST_CORE_THRESHOLD_BYTES_H_

// The trainer's bucket bytes (DESIGN.md §4k): how TrainAutoTest folds
// corpus columns from one byte per (function, pool value). Used by
// core/trainer.cc and its tests only.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/trainer.h"
#include "util/check.h"

namespace autotest::core {

/// The most thresholds one function has: its d_ins and its d_outs.
inline constexpr size_t kMaxBounds = kDInFracs.size() + kDOutFracs.size();

/// Bucket byte of distance `d` against `bounds`, a function's d_ins then
/// its d_outs in one non-decreasing list: the number of bounds d exceeds
/// (d > bound). A distance lies within bound t (d <= bound t) exactly when
/// its byte is at most t. NaN exceeds no bound, so its byte is 0 and it
/// counts as within every bound.
inline uint8_t ThresholdByte(std::span<const double> bounds, double d) {
  // Down from the top: most pool values lie far outside most functions'
  // domains, so the scan usually stops at once. !(d > bound) walks a NaN
  // down to 0.
  size_t b = bounds.size();
  while (b > 0 && !(d > bounds[b - 1])) --b;
  return static_cast<uint8_t>(b);
}

/// within[t], for each t < num_bounds (at most kMaxBounds): the summed
/// `counts` of the `ids` whose byte, bytes[id] from ThresholdByte over
/// those bounds, is at most t. One histogram over the ids' bytes, then a
/// prefix sum.
inline void CountWithinBytes(std::span<const uint32_t> ids,
                             std::span<const uint32_t> counts,
                             const uint8_t* bytes, size_t num_bounds,
                             uint64_t* within) {
  AT_CHECK(num_bounds <= kMaxBounds);
  // hist[b]: the weight of the ids whose byte is b.
  std::array<uint64_t, kMaxBounds + 1> hist{};
  for (size_t j = 0; j < ids.size(); ++j) hist[bytes[ids[j]]] += counts[j];
  uint64_t acc = 0;
  for (size_t t = 0; t < num_bounds; ++t) {
    acc += hist[t];
    within[t] = acc;
  }
}

}  // namespace autotest::core

#endif  // AUTOTEST_CORE_THRESHOLD_BYTES_H_
