#include "trace.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

// Innermost span still open on this thread (one tracer per process).
thread_local int64_t t_open_span = -1;

}  // namespace

Tracer::Span::Span(Tracer& tracer, const char* name, const char* layer,
                   uint64_t request)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  parent_ = t_open_span;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(tracer_.mu_);
  id_ = static_cast<int64_t>(tracer_.records_.size());
  tracer_.records_.push_back({name, layer, parent_, request, now, now});
  t_open_span = id_;
}

Tracer::Span::~Span() {
  if (id_ < 0) return;
  const Clock::time_point now = Clock::now();
  t_open_span = parent_;
  std::lock_guard<std::mutex> lock(tracer_.mu_);
  tracer_.records_[static_cast<size_t>(id_)].end = now;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::map<std::string, Tracer::Totals> Tracer::Summarize(bool by_layer) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto seconds = [](const Record& r) {
    return std::chrono::duration<double>(r.end - r.start).count();
  };
  std::vector<double> child_seconds(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      child_seconds[static_cast<size_t>(r.parent)] += seconds(r);
    }
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    Totals& totals = out[by_layer ? r.layer : r.name];
    totals.seconds += seconds(r);
    totals.self_seconds += seconds(r) - child_seconds[i];
    ++totals.count;
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const Clock::time_point origin =
      records_.empty() ? Clock::time_point() : records_.front().start;
  auto micros = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  char line[256];
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\","
                  "\"parent\":%lld,\"request\":%llu,\"start_us\":%.3f,"
                  "\"end_us\":%.3f}\n",
                  i, r.name, r.layer, static_cast<long long>(r.parent),
                  static_cast<unsigned long long>(r.request),
                  micros(r.start), micros(r.end));
    out << line;
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
