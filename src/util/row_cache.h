#ifndef AUTOTEST_UTIL_ROW_CACHE_H_
#define AUTOTEST_UTIL_ROW_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/check.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace autotest::util {

/// The per-value memo of a model's output rows: a CTA zoo's all-type
/// score vector (paper Eq. 1) or an embedding model's vector (Eq. 2). One
/// entry per distinct value holds its float row; a value without a row (a
/// word outside GloVe's vocabulary) holds an empty entry that stores no
/// floats. Thread-safe. The map is cleared whole once it holds
/// kMaxEntries values, which keeps memory bounded over long runs.
class RowCache {
 public:
  static constexpr size_t kMaxEntries = 2'000'000;

  /// Writes values.size() row-major rows of `width` floats into `out`,
  /// row i holding the row of values[i], and sets ok[i] to 1. A value
  /// without a row gets a zero row and ok[i] == 0; `ok` may be null when
  /// every value has a row. The block's lookups run under one lock;
  /// `compute(value, &row)` fills each miss's row outside it (leaving it
  /// empty for a value without one), and the misses are inserted under one
  /// more. Each call adds its hits and misses to the `row_cache.*`
  /// counters, one relaxed add each.
  template <typename Compute>
  void Fill(std::span<const std::string_view> values, size_t width,
            float* out, uint8_t* ok, const Compute& compute) {
    static metrics::Counter& hits =
        metrics::Registry::Global().GetCounter(metrics::kMRowCacheHits);
    static metrics::Counter& misses_counter =
        metrics::Registry::Global().GetCounter(metrics::kMRowCacheMisses);
    auto emit = [&](size_t i, const std::vector<float>& row) {
      float* dst = out + i * width;
      if (row.empty()) {
        AT_CHECK(ok != nullptr);
        ok[i] = 0;
        std::fill(dst, dst + width, 0.0f);
        return;
      }
      AT_CHECK(row.size() == width);
      if (ok != nullptr) ok[i] = 1;
      std::copy(row.begin(), row.end(), dst);
    };
    std::vector<size_t> misses;
    {
      MutexLock lock(&mu_);
      for (size_t i = 0; i < values.size(); ++i) {
        auto it = rows_.find(values[i]);
        if (it == rows_.end()) {
          misses.push_back(i);
        } else {
          emit(i, it->second);
        }
      }
    }
    hits.Increment(values.size() - misses.size());
    misses_counter.Increment(misses.size());
    if (misses.empty()) return;
    std::vector<std::vector<float>> computed(misses.size());
    for (size_t k = 0; k < misses.size(); ++k) {
      compute(values[misses[k]], &computed[k]);
      emit(misses[k], computed[k]);
    }
    MutexLock lock(&mu_);
    for (size_t k = 0; k < misses.size(); ++k) {
      if (rows_.size() >= kMaxEntries) rows_.clear();
      rows_.emplace(std::string(values[misses[k]]), std::move(computed[k]));
    }
  }

 private:
  // Transparent hashing: lookups by string_view build no std::string.
  struct ValueHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  Mutex mu_;
  std::unordered_map<std::string, std::vector<float>, ValueHash,
                     std::equal_to<>>
      rows_ AT_GUARDED_BY(mu_);
};

}  // namespace autotest::util

#endif  // AUTOTEST_UTIL_ROW_CACHE_H_
