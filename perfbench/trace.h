#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// In-memory span recorder for the traced benchmark run. Spans nest per
/// thread: a span's parent is the innermost span still open on the thread
/// that opened it. Spans are kept in memory and written out once, when the
/// workload has finished. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span around one call into a layer. `name` and `layer` must
  /// outlive the tracer (string literals). Spans of one serve request
  /// share a non-zero `request` id.
  class Span {
   public:
    Span(Tracer& tracer, const char* name, const char* layer,
         uint64_t request = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    int64_t id_ = -1;
    int64_t parent_ = -1;
  };

  /// Wall time of a group of spans, and the part of it that no direct
  /// child span covers.
  struct Totals {
    double seconds = 0.0;
    double self_seconds = 0.0;
    size_t count = 0;
  };
  std::map<std::string, Totals> ByName() const { return Summarize(false); }
  std::map<std::string, Totals> ByLayer() const { return Summarize(true); }

  size_t size() const;

  /// One JSON object per line: id, name, layer, parent (-1 for a root),
  /// request, start_us and end_us (microseconds since the first span).
  bool WriteJsonLines(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Record {
    const char* name;
    const char* layer;
    int64_t parent;
    uint64_t request;
    Clock::time_point start;
    Clock::time_point end;
  };

  std::map<std::string, Totals> Summarize(bool by_layer) const;

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
