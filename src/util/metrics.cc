#include "util/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/check.h"

namespace autotest::metrics {

namespace {

// Renders a double with enough precision to round-trip, trimming the
// trailing zeros %.17g would keep. Non-finite values become `null` so
// every emitted document stays valid JSON.
std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  double parsed = 0.0;
  // Prefer the shortest representation that still round-trips.
  for (int precision = 1; precision <= 16; ++precision) {
    char shorter[64];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, v);
    std::sscanf(shorter, "%lf", &parsed);
    if (parsed == v) return shorter;
  }
  return buf;
}

std::string_view KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  AT_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bucket bound");
  AT_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                   std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                       bounds_.end(),
               "histogram bounds must be strictly ascending");
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double v) {
  size_t idx =
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(bounds_.size() + 1);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Name validation and serialization
// ---------------------------------------------------------------------------

bool IsValidMetricName(std::string_view name) {
  if (name.empty() || name.front() == '.' || name.back() == '.') return false;
  int segments = 1;
  bool at_segment_start = true;
  for (char c : name) {
    if (c == '.') {
      if (at_segment_start) return false;  // empty segment ("a..b")
      ++segments;
      at_segment_start = true;
      continue;
    }
    if (at_segment_start) {
      if (c < 'a' || c > 'z') return false;
      at_segment_start = false;
      continue;
    }
    bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return segments >= 2;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string FormatMetricsJson(const std::vector<MetricValue>& values,
                              std::string_view source) {
  std::ostringstream os;
  os << "{\"schema\":\"autotest.metrics.v1\",\"source\":\""
     << JsonEscape(source) << "\",\"metrics\":[";
  bool first = true;
  for (const MetricValue& m : values) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"name\":\"" << JsonEscape(m.name) << "\",\"kind\":\""
       << KindName(m.kind) << "\",";
    switch (m.kind) {
      case MetricKind::kCounter:
        os << "\"value\":" << m.counter << "}";
        break;
      case MetricKind::kGauge:
        os << "\"value\":" << FormatDouble(m.gauge) << "}";
        break;
      case MetricKind::kHistogram: {
        os << "\"count\":" << m.histogram.count
           << ",\"sum\":" << FormatDouble(m.histogram.sum) << ",\"buckets\":[";
        for (size_t i = 0; i < m.histogram.buckets.size(); ++i) {
          if (i > 0) os << ",";
          os << "{\"le\":";
          if (i < m.histogram.bounds.size()) {
            os << FormatDouble(m.histogram.bounds[i]);
          } else {
            os << "\"+inf\"";
          }
          os << ",\"count\":" << m.histogram.buckets[i] << "}";
        }
        os << "]}";
        break;
      }
    }
  }
  os << "\n]}\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry& Registry::Global() {
  // Leaked intentionally: metric references handed to components must
  // stay valid through static destruction.
  static Registry* g = new Registry();
  return *g;
}

Counter& Registry::GetCounter(std::string_view name) {
  AT_CHECK_MSG(IsValidMetricName(name), "invalid metric name");
  util::MutexLock lock(&mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = MetricKind::kCounter;
    e.counter = std::make_unique<Counter>();
    it = entries_.emplace(std::string(name), std::move(e)).first;
  }
  AT_CHECK_MSG(it->second.kind == MetricKind::kCounter,
               "metric re-registered under a different kind");
  return *it->second.counter;
}

Gauge& Registry::GetGauge(std::string_view name) {
  AT_CHECK_MSG(IsValidMetricName(name), "invalid metric name");
  util::MutexLock lock(&mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = MetricKind::kGauge;
    e.gauge = std::make_unique<Gauge>();
    it = entries_.emplace(std::string(name), std::move(e)).first;
  }
  AT_CHECK_MSG(it->second.kind == MetricKind::kGauge,
               "metric re-registered under a different kind");
  return *it->second.gauge;
}

Histogram& Registry::GetHistogram(std::string_view name,
                                  const std::vector<double>& bounds) {
  AT_CHECK_MSG(IsValidMetricName(name), "invalid metric name");
  util::MutexLock lock(&mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = MetricKind::kHistogram;
    e.histogram.reset(new Histogram(bounds));
    it = entries_.emplace(std::string(name), std::move(e)).first;
  }
  AT_CHECK_MSG(it->second.kind == MetricKind::kHistogram,
               "metric re-registered under a different kind");
  AT_CHECK_MSG(it->second.histogram->bounds() == bounds,
               "histogram re-registered with different bounds");
  return *it->second.histogram;
}

bool Registry::IsRegistered(std::string_view name) const {
  util::MutexLock lock(&mu_);
  return entries_.find(name) != entries_.end();
}

std::vector<MetricValue> Registry::Snapshot() const {
  util::MutexLock lock(&mu_);
  std::vector<MetricValue> out;
  out.reserve(entries_.size());
  // std::map iteration is already lexicographic by name.
  for (const auto& [name, entry] : entries_) {
    MetricValue m;
    m.name = name;
    m.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        m.counter = entry.counter->value();
        break;
      case MetricKind::kGauge:
        m.gauge = entry.gauge->value();
        break;
      case MetricKind::kHistogram:
        m.histogram.bounds = entry.histogram->bounds();
        m.histogram.buckets = entry.histogram->BucketCounts();
        m.histogram.count = entry.histogram->count();
        m.histogram.sum = entry.histogram->sum();
        break;
    }
    out.push_back(std::move(m));
  }
  return out;
}

std::string Registry::FormatJson(std::string_view source) const {
  return FormatMetricsJson(Snapshot(), source);
}

void Registry::ResetValuesForTest() {
  util::MutexLock lock(&mu_);
  for (auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case MetricKind::kCounter:
        entry.counter->Reset();
        break;
      case MetricKind::kGauge:
        entry.gauge->Reset();
        break;
      case MetricKind::kHistogram:
        entry.histogram->Reset();
        break;
    }
  }
}

}  // namespace autotest::metrics
