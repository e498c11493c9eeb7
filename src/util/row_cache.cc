#include "util/row_cache.h"

#include <cstring>
#include <functional>

namespace autotest::util {

namespace {

// Bytes per row word: a float of a model row or a predictor's bit word.
constexpr size_t kWordBytes = 4;

}  // namespace

RowCache::RowCache()
    : RowCache(metrics::Registry::Global().GetGauge(metrics::kMRowCacheBytes),
               metrics::Registry::Global().GetCounter(
                   metrics::kMRowCacheClears)) {}

RowCache::RowCache(metrics::Gauge& bytes, metrics::Counter& clears)
    : bytes_gauge_(bytes), clears_counter_(clears) {}

RowCache::~RowCache() {
  MutexLock lock(&mu_);
  bytes_gauge_.Add(-static_cast<double>(bytes_));
}

void RowCache::LookupWords(std::span<const std::string_view> values,
                           size_t width, void* out, uint8_t* ok,
                           std::vector<size_t>* misses) {
  char* rows = static_cast<char*>(out);
  MutexLock lock(&mu_);
  for (size_t i = 0; i < values.size(); ++i) {
    if (!Read(values[i], width, rows + i * width * kWordBytes,
              ok == nullptr ? nullptr : ok + i)) {
      misses->push_back(i);
    }
  }
}

void RowCache::InsertWords(std::span<const std::string_view> values,
                           std::span<const size_t> which, size_t width,
                           const void* rows, const uint8_t* ok) {
  const char* bytes = static_cast<const char*>(rows);
  MutexLock lock(&mu_);
  for (size_t i : which) {
    const bool has_row = ok == nullptr || ok[i] != 0;
    InsertOne(values[i], width,
              has_row ? bytes + i * width * kWordBytes : nullptr);
  }
}

uint32_t RowCache::Hash(std::string_view value) {
  const size_t h = std::hash<std::string_view>{}(value);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

size_t RowCache::Probe(std::string_view value, uint32_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.pos == kEmptySlot) return i;
    if (slot.hash != hash || slot.key_len != value.size()) continue;
    const char* key =
        Record(slot.pos) + (slot.has_row != 0 ? width_ * kWordBytes : 0);
    if (value.empty() || std::memcmp(key, value.data(), value.size()) == 0) {
      return i;
    }
  }
}

bool RowCache::Read(std::string_view value, size_t width, char* row,
                    uint8_t* ok) const {
  if (count_ == 0) return false;
  const Slot& slot = slots_[Probe(value, Hash(value))];
  if (slot.pos == kEmptySlot) return false;
  if (slot.has_row == 0) {
    AT_CHECK(ok != nullptr);
    *ok = 0;
    std::memset(row, 0, width * kWordBytes);
    return true;
  }
  AT_CHECK(width == width_);
  std::memcpy(row, Record(slot.pos), width * kWordBytes);
  if (ok != nullptr) *ok = 1;
  return true;
}

void RowCache::InsertOne(std::string_view value, size_t width,
                         const char* row) {
  if (width_ == 0) width_ = width;
  AT_CHECK(width == width_);
  const size_t row_bytes = row != nullptr ? width * kWordBytes : 0;
  const size_t record = row_bytes + value.size();
  if (record > kChunkBytes) return;
  const uint32_t hash = Hash(value);
  if (count_ > 0 && slots_[Probe(value, hash)].pos != kEmptySlot) return;

  // Where the record goes (the next chunk when it does not fit in the
  // current one) and what the memo must grow by to take it: a new chunk,
  // and a doubled index once it would pass half load (the first index has
  // 1024 slots). At the bound the memo clears and starts over in its
  // first chunk.
  size_t pos = 0;
  bool new_chunk = false;
  size_t new_slots = 0;
  for (;;) {
    pos = used_;
    if (pos % kChunkBytes + record > kChunkBytes) {
      pos += kChunkBytes - pos % kChunkBytes;
    }
    new_chunk = pos / kChunkBytes == chunks_.size();
    new_slots = (count_ + 1) * 2 > slots_.size()
                    ? std::max<size_t>(slots_.size(), 1024)
                    : 0;
    const size_t grow =
        (new_chunk ? kChunkBytes : 0) + new_slots * sizeof(Slot);
    if (bytes_ + grow <= kMaxBytes) {
      bytes_ += grow;
      bytes_gauge_.Add(static_cast<double>(grow));
      break;
    }
    if (count_ == 0) return;  // even an empty memo has no room for it
    Clear();
  }
  if (new_chunk) {
    chunks_.push_back(std::make_unique_for_overwrite<char[]>(kChunkBytes));
  }
  if (new_slots > 0) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() + new_slots, Slot{});
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.pos == kEmptySlot) continue;
      size_t i = slot.hash & mask;
      while (slots_[i].pos != kEmptySlot) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  char* dst = chunks_[pos / kChunkBytes].get() + pos % kChunkBytes;
  if (row_bytes > 0) std::memcpy(dst, row, row_bytes);
  if (!value.empty()) std::memcpy(dst + row_bytes, value.data(), value.size());
  Slot& slot = slots_[Probe(value, hash)];
  slot.hash = hash;
  slot.key_len = static_cast<uint32_t>(value.size());
  slot.pos = static_cast<uint32_t>(pos);
  slot.has_row = row != nullptr ? 1 : 0;
  ++count_;
  // Records start 4-byte aligned, so rows copy out aligned.
  used_ = pos + (record + 3) / 4 * 4;
}

void RowCache::Clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  count_ = 0;
  used_ = 0;
  clears_counter_.Increment();
}

}  // namespace autotest::util
