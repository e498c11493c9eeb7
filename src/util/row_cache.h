#ifndef AUTOTEST_UTIL_ROW_CACHE_H_
#define AUTOTEST_UTIL_ROW_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/check.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace autotest::util {

/// Whether a block call inserts the rows it computes for its misses into
/// the memo it read. Training, the baselines and scalar `Distance` fill
/// the shared models' memos; the predictor only reads them (DESIGN.md
/// §4k).
enum class MemoWrite { kInsert, kReadOnly };

/// A per-value memo of fixed-width rows of 4-byte words: a CTA zoo's
/// all-type score vector (paper Eq. 1), an embedding model's vector
/// (Eq. 2), or a predictor plan's comparison bits. Thread-safe.
///
/// The memo is a flat slab. Each distinct value gets one record, its row
/// (none for a value without one, such as a word outside GloVe's
/// vocabulary) followed by its key bytes, bump-allocated in fixed-size
/// chunks, and one 16-byte entry in an open-addressing index. The chunks
/// and the index together never hold more than kMaxBytes. An insert that
/// would take them over clears the memo whole; the chunks and the index
/// stay allocated and are reused, so a clear frees nothing and costs one
/// pass over the index. Rows are copied in and out with memcpy only.
class RowCache {
 public:
  static constexpr size_t kMaxBytes = size_t{64} << 20;

  /// A model memo: reports its memory on the `row_cache.bytes` gauge and
  /// its clears on the `row_cache.clears` counter.
  RowCache();
  /// A memo reporting its memory and clears on the given metrics.
  RowCache(metrics::Gauge& bytes, metrics::Counter& clears);
  RowCache(const RowCache&) = delete;
  RowCache& operator=(const RowCache&) = delete;
  /// Takes the memo's bytes off its gauge.
  ~RowCache();

  /// Copies the memoized row of each of `values` into `out`, values.size()
  /// row-major rows of `width` words: a hit's row with ok[i] = 1, or a
  /// zero row and ok[i] = 0 for a hit without a row (`ok` may be null when
  /// every memoized value has a row). Appends the index of each miss to
  /// `misses` and leaves its row as it was. The block's lookups run under
  /// one lock; a lookup counts nothing. Every call on one memo passes the
  /// same `width`.
  template <typename Word>
  void Lookup(std::span<const std::string_view> values, size_t width,
              Word* out, uint8_t* ok, std::vector<size_t>* misses) {
    static_assert(sizeof(Word) == 4 && std::is_trivially_copyable_v<Word>);
    LookupWords(values, width, out, ok, misses);
  }

  /// Memoizes values[i] for each i in `which` with row i of `rows`, or
  /// with no row when ok[i] == 0 (`ok` may be null when every value has a
  /// row), under one lock. A value already memoized keeps its record.
  template <typename Word>
  void Insert(std::span<const std::string_view> values,
              std::span<const size_t> which, size_t width, const Word* rows,
              const uint8_t* ok) {
    static_assert(sizeof(Word) == 4 && std::is_trivially_copyable_v<Word>);
    InsertWords(values, which, width, rows, ok);
  }

  /// Lookup, compute, insert: writes values.size() rows of `width` floats
  /// into `out`, row i holding the row of values[i], and sets ok[i] to 1,
  /// or to 0 with a zero row for a value without a row (`ok` may be null
  /// when every value has a row). `compute(value, row)` fills each miss's
  /// `width` floats straight into `out` outside the lock and returns false
  /// for a value without a row; with MemoWrite::kInsert the misses are
  /// then inserted under one more lock. Each call adds its hits and misses
  /// to the `row_cache.*` counters, one relaxed add each.
  template <typename Compute>
  void Fill(std::span<const std::string_view> values, size_t width,
            float* out, uint8_t* ok, MemoWrite write,
            const Compute& compute) {
    static metrics::Counter& hits =
        metrics::Registry::Global().GetCounter(metrics::kMRowCacheHits);
    static metrics::Counter& misses_counter =
        metrics::Registry::Global().GetCounter(metrics::kMRowCacheMisses);
    std::vector<size_t> misses;
    Lookup(values, width, out, ok, &misses);
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
    if (write == MemoWrite::kInsert) Insert(values, misses, width, out, ok);
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

  void LookupWords(std::span<const std::string_view> values, size_t width,
                   void* out, uint8_t* ok, std::vector<size_t>* misses);
  void InsertWords(std::span<const std::string_view> values,
                   std::span<const size_t> which, size_t width,
                   const void* rows, const uint8_t* ok);
  // Copies the memoized row of `value` into `row` (a zero row and *ok = 0
  // for a value without one) and returns true, or returns false on a miss.
  bool Read(std::string_view value, size_t width, char* row,
            uint8_t* ok) const AT_REQUIRES(mu_);
  // Memoizes `value` with `row` (null for a value without one), unless it
  // is already there; clears the memo first when it would outgrow
  // kMaxBytes.
  void InsertOne(std::string_view value, size_t width, const char* row)
      AT_REQUIRES(mu_);
  // Index of the slot holding `value`, or of the empty slot that ends its
  // probe sequence. The index must be non-empty.
  size_t Probe(std::string_view value, uint32_t hash) const AT_REQUIRES(mu_);
  const char* Record(uint32_t pos) const AT_REQUIRES(mu_) {
    return chunks_[pos / kChunkBytes].get() + pos % kChunkBytes;
  }
  void Clear() AT_REQUIRES(mu_);

  metrics::Gauge& bytes_gauge_;
  metrics::Counter& clears_counter_;
  Mutex mu_;
  std::vector<std::unique_ptr<char[]>> chunks_ AT_GUARDED_BY(mu_);
  std::vector<Slot> slots_ AT_GUARDED_BY(mu_);  // power-of-two size
  size_t width_ AT_GUARDED_BY(mu_) = 0;  // words per row; 0 until set
  size_t count_ AT_GUARDED_BY(mu_) = 0;  // values memoized
  size_t used_ AT_GUARDED_BY(mu_) = 0;   // slab bytes in use
  size_t bytes_ AT_GUARDED_BY(mu_) = 0;  // chunks and index held
};

}  // namespace autotest::util

#endif  // AUTOTEST_UTIL_ROW_CACHE_H_
