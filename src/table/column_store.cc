#include "table/column_store.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

namespace autotest::table {

std::string_view ColumnStore::ArenaCopy(std::string_view value) {
  if (value.empty()) return std::string_view();
  if (value.size() > kChunkBytes) {
    // Oversized values get a dedicated chunk, inserted behind the current
    // one so the current chunk's free tail stays usable.
    auto chunk = std::make_unique<char[]>(value.size());
    std::memcpy(chunk.get(), value.data(), value.size());
    std::string_view out(chunk.get(), value.size());
    chunks_.insert(chunks_.empty() ? chunks_.end() : chunks_.end() - 1,
                   std::move(chunk));
    arena_bytes_ += value.size();
    return out;
  }
  if (chunk_used_ + value.size() > chunk_capacity_) {
    chunks_.push_back(std::make_unique<char[]>(kChunkBytes));
    chunk_used_ = 0;
    chunk_capacity_ = kChunkBytes;
  }
  char* dst = chunks_.back().get() + chunk_used_;
  std::memcpy(dst, value.data(), value.size());
  chunk_used_ += value.size();
  arena_bytes_ += value.size();
  return std::string_view(dst, value.size());
}

ColumnStore ColumnStore::Build(std::span<const DistinctValues> columns) {
  ColumnStore store;
  size_t total_entries = 0;
  for (const auto& col : columns) total_entries += col.size();
  store.ids_.reserve(total_entries);
  store.counts_.reserve(total_entries);
  store.col_offsets_.reserve(columns.size() + 1);
  store.totals_.reserve(columns.size());
  store.col_offsets_.push_back(0);
  for (const auto& col : columns) {
    AT_CHECK(col.values.size() == col.counts.size());
    for (size_t i = 0; i < col.values.size(); ++i) {
      const std::string& v = col.values[i];
      uint32_t id;
      auto it = store.index_.find(std::string_view(v));
      if (it != store.index_.end()) {
        id = it->second;
      } else {
        AT_CHECK_MSG(store.pool_.size() < kNotFound,
                     "ColumnStore: pool id space exhausted");
        id = static_cast<uint32_t>(store.pool_.size());
        std::string_view interned = store.ArenaCopy(v);
        store.pool_.push_back(interned);
        store.index_.emplace(interned, id);
      }
      AT_CHECK_MSG(col.counts[i] <= UINT32_MAX,
                   "ColumnStore: per-value multiplicity overflows uint32");
      store.ids_.push_back(id);
      store.counts_.push_back(static_cast<uint32_t>(col.counts[i]));
    }
    store.col_offsets_.push_back(store.ids_.size());
    store.totals_.push_back(static_cast<uint64_t>(col.total));
  }
  return store;
}

ColumnStore ColumnStore::FromCorpus(const Corpus& corpus) {
  std::vector<DistinctValues> distinct(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    distinct[i] = Distinct(corpus[i]);
  }
  return Build(distinct);
}

ColumnStore::ColumnRef ColumnStore::column(size_t c) const {
  AT_CHECK(c + 1 < col_offsets_.size());
  size_t begin = col_offsets_[c];
  size_t end = col_offsets_[c + 1];
  ColumnRef ref;
  ref.ids = std::span<const uint32_t>(ids_).subspan(begin, end - begin);
  ref.counts = std::span<const uint32_t>(counts_).subspan(begin, end - begin);
  ref.total_weight = totals_[c];
  return ref;
}

uint32_t ColumnStore::Find(std::string_view value) const {
  auto it = index_.find(value);
  return it == index_.end() ? kNotFound : it->second;
}

}  // namespace autotest::table
