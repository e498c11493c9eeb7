#ifndef AUTOTEST_UTIL_ROW_CACHE_H_
#define AUTOTEST_UTIL_ROW_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "util/check.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace autotest::util {

/// The per-value memo of a model's output rows: a CTA zoo's all-type
/// score vector (paper Eq. 1) or an embedding model's vector (Eq. 2).
/// Thread-safe.
///
/// The memo is a flat slab. Each distinct value gets one record, its row
/// (none for a value without one, such as a word outside GloVe's
/// vocabulary) followed by its key bytes, bump-allocated in fixed-size
/// chunks, and one 16-byte entry in an open-addressing index. The chunks
/// and the index together never hold more than kMaxBytes. An insert that
/// would take them over clears the memo whole; the chunks and the index
/// stay allocated and are reused, so a clear frees nothing and costs one
/// pass over the index.
class RowCache {
 public:
  static constexpr size_t kMaxBytes = size_t{64} << 20;

  /// Registers the `row_cache.bytes` gauge and `row_cache.clears` counter.
  RowCache();
  RowCache(const RowCache&) = delete;
  RowCache& operator=(const RowCache&) = delete;
  /// Takes the memo's bytes off the `row_cache.bytes` gauge.
  ~RowCache();

  /// Writes values.size() row-major rows of `width` floats into `out`,
  /// row i holding the row of values[i], and sets ok[i] to 1. A value
  /// without a row gets a zero row and ok[i] == 0; `ok` may be null when
  /// every value has a row. The block's lookups run under one lock;
  /// `compute(value, row)` fills each miss's `width` floats straight into
  /// `out` outside it and returns false for a value without a row, and the
  /// misses are inserted under one more lock. Each call adds its hits and
  /// misses to the `row_cache.*` counters, one relaxed add each. Every
  /// call on one memo passes the same `width`.
  template <typename Compute>
  void Fill(std::span<const std::string_view> values, size_t width,
            float* out, uint8_t* ok, const Compute& compute) {
    static metrics::Counter& hits =
        metrics::Registry::Global().GetCounter(metrics::kMRowCacheHits);
    static metrics::Counter& misses_counter =
        metrics::Registry::Global().GetCounter(metrics::kMRowCacheMisses);
    std::vector<size_t> misses;
    {
      MutexLock lock(&mu_);
      for (size_t i = 0; i < values.size(); ++i) {
        if (!Read(values[i], width, out + i * width,
                  ok == nullptr ? nullptr : ok + i)) {
          misses.push_back(i);
        }
      }
    }
    hits.Increment(values.size() - misses.size());
    misses_counter.Increment(misses.size());
    if (misses.empty()) return;
    for (size_t i : misses) {
      float* row = out + i * width;
      if (compute(values[i], row)) {
        if (ok != nullptr) ok[i] = 1;
      } else {
        AT_CHECK(ok != nullptr);
        ok[i] = 0;
        std::fill(row, row + width, 0.0f);
      }
    }
    MutexLock lock(&mu_);
    for (size_t i : misses) {
      const bool has_row = ok == nullptr || ok[i] != 0;
      Insert(values[i], width, has_row ? out + i * width : nullptr);
    }
  }

 private:
  // One slab chunk. A record larger than a chunk (a key near 1 MiB) is
  // computed on every read and never memoized.
  static constexpr size_t kChunkBytes = size_t{1} << 20;
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  // One index entry: a value's hash, key length and record offset in the
  // slab (chunk * kChunkBytes + offset), or pos == kEmptySlot.
  struct Slot {
    uint32_t hash = 0;
    uint32_t key_len = 0;
    uint32_t pos = kEmptySlot;
    uint32_t has_row = 0;
  };

  static uint32_t Hash(std::string_view value);

  // Copies the memoized row of `value` into `row` (a zero row and *ok = 0
  // for a value without one) and returns true, or returns false on a miss.
  bool Read(std::string_view value, size_t width, float* row,
            uint8_t* ok) const AT_REQUIRES(mu_);
  // Memoizes `value` with `row` (null for a value without one), unless it
  // is already there; clears the memo first when it would outgrow
  // kMaxBytes.
  void Insert(std::string_view value, size_t width, const float* row)
      AT_REQUIRES(mu_);
  // Index of the slot holding `value`, or of the empty slot that ends its
  // probe sequence. The index must be non-empty.
  size_t Probe(std::string_view value, uint32_t hash) const AT_REQUIRES(mu_);
  const char* Record(uint32_t pos) const AT_REQUIRES(mu_) {
    return chunks_[pos / kChunkBytes].get() + pos % kChunkBytes;
  }
  void Clear() AT_REQUIRES(mu_);

  Mutex mu_;
  std::vector<std::unique_ptr<char[]>> chunks_ AT_GUARDED_BY(mu_);
  std::vector<Slot> slots_ AT_GUARDED_BY(mu_);  // power-of-two size
  size_t width_ AT_GUARDED_BY(mu_) = 0;  // floats per row; 0 until set
  size_t count_ AT_GUARDED_BY(mu_) = 0;  // values memoized
  size_t used_ AT_GUARDED_BY(mu_) = 0;   // slab bytes in use
  size_t bytes_ AT_GUARDED_BY(mu_) = 0;  // chunks and index held
};

}  // namespace autotest::util

#endif  // AUTOTEST_UTIL_ROW_CACHE_H_
