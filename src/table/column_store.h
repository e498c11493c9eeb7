#ifndef AUTOTEST_TABLE_COLUMN_STORE_H_
#define AUTOTEST_TABLE_COLUMN_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "table/table.h"

namespace autotest::table {

/// Columnar view of a corpus for batched evaluation (DESIGN.md §4k).
///
/// Every distinct value of every column is interned exactly once into an
/// arena-backed string pool: one set of contiguous character buffers plus a
/// `string_view` index. Each column is stored as two parallel arrays of
/// pool ids and multiplicities, flattened into shared vectors so a scan
/// over a column touches contiguous memory.
///
/// The pool is the unit of memoization for the trainer: each shared
/// backend computes its rows once per block of the pool, each
/// domain-evaluation function is scored once per pool value, and
/// per-column statistics are gathered from the resulting distance array by
/// pool id. Because the corpus repeats values heavily both within and
/// across columns, this turns O(sum of per-column distinct values)
/// distance computations per eval family into O(pool size).
///
/// Immutable after Build; safe to share across threads without locking.
class ColumnStore {
 public:
  /// Sentinel returned by Find for values absent from the pool.
  static constexpr uint32_t kNotFound = UINT32_MAX;

  /// One column as pool ids + multiplicities (first-seen order, matching
  /// table::Distinct on the same column).
  struct ColumnRef {
    std::span<const uint32_t> ids;
    std::span<const uint32_t> counts;
    uint64_t total_weight = 0;  // sum of counts == column size

    size_t size() const { return ids.size(); }
  };

  /// Builds the store from per-column distinct-value summaries (the
  /// trainer already computes these in parallel; interning is a single
  /// sequential pass over them).
  static ColumnStore Build(std::span<const DistinctValues> columns);

  /// Convenience: computes the distinct summaries itself, then interns.
  static ColumnStore FromCorpus(const Corpus& corpus);

  ColumnStore(ColumnStore&&) = default;
  ColumnStore& operator=(ColumnStore&&) = default;
  ColumnStore(const ColumnStore&) = delete;
  ColumnStore& operator=(const ColumnStore&) = delete;

  /// The interned pool, in first-interned order. Views point into the
  /// arena and stay valid for the store's lifetime (moves included).
  std::span<const std::string_view> pool() const { return pool_; }
  size_t pool_size() const { return pool_.size(); }

  size_t num_columns() const { return col_offsets_.size() - 1; }
  ColumnRef column(size_t c) const;

  /// Pool id of an interned value, or kNotFound.
  uint32_t Find(std::string_view value) const;

  /// Bytes of value data held by the arena (diagnostics).
  size_t arena_bytes() const { return arena_bytes_; }

 private:
  ColumnStore() = default;

  /// Copies the value into the arena and returns a stable view.
  std::string_view ArenaCopy(std::string_view value);

  static constexpr size_t kChunkBytes = 1 << 18;

  // Arena chunks: stable heap buffers the pool's views point into.
  std::vector<std::unique_ptr<char[]>> chunks_;
  size_t chunk_used_ = 0;
  size_t chunk_capacity_ = 0;
  size_t arena_bytes_ = 0;

  struct ViewHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string_view> pool_;
  std::unordered_map<std::string_view, uint32_t, ViewHash, std::equal_to<>>
      index_;

  // Flattened per-column id/count arrays; column c spans
  // [col_offsets_[c], col_offsets_[c + 1]).
  std::vector<uint32_t> ids_;
  std::vector<uint32_t> counts_;
  std::vector<size_t> col_offsets_;
  std::vector<uint64_t> totals_;
};

}  // namespace autotest::table

#endif  // AUTOTEST_TABLE_COLUMN_STORE_H_
