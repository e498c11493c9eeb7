// One process of the repository benchmark. It generates one workload's
// inputs from a seed, runs the workload against the public C++ API, checks
// every operation's output and prints one JSON object on stdout:
//
//   perfbench_driver --workload train|select|serve_hot|serve_cold
//                    --seed N --seconds S --trace 0|1 --work-dir DIR
//
// perfbench/run.py builds this binary, runs a few of these processes per
// benchmark run and aggregates them. perfbench/README.md defines every
// metric and says why each workload exists.

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/auto_test.h"
#include "core/serialization.h"
#include "datagen/bench_gen.h"
#include "datagen/corpus_gen.h"
#include "eval/harness.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/snapshot.h"
#include "serve/wire.h"
#include "table/column_store.h"
#include "table/csv.h"
#include "trace.h"
#include "util/budget.h"
#include "util/hashing.h"
#include "util/metrics.h"
#include "util/parallel/thread_pool.h"
#include "util/retry.h"

namespace {

using namespace autotest;
using perfbench::Tracer;
using SteadyClock = std::chrono::steady_clock;

// The `autotest train` defaults: a relational corpus of 2000 columns, 120
// centroids per embedding model and 800 synthetic columns.
constexpr size_t kCorpusColumns = 2000;
constexpr size_t kCentroids = 120;
constexpr size_t kTrainSynthetic = 800;
// The select workload's model (`autotest train --synthetic 10000`); its
// CSS/FSS LP has about 9k columns and 10k rows.
constexpr size_t kSelectSynthetic = 10000;
// The held-out RT-Bench that scores Table 4 quality: twice the paper's
// 1200 columns. A run takes the median over several processes, each on
// its own corpus and quality set.
constexpr size_t kQualityColumns = 2400;
// Set-up generates the corpus and the quality set this many times and
// reports the median time.
constexpr size_t kInputRepeats = 3;
// serve_hot replays a small pool; serve_cold sends each column once.
constexpr size_t kHotPoolColumns = 64;
constexpr size_t kColdPoolColumns = 30000;
// Requests in each fixed-size pass of the traced run. serve_cold keeps the
// last three such slices of its pool out of the timed window.
constexpr size_t kProbeRequests = 256;
constexpr uint64_t kProbeRequestIds = uint64_t{1} << 32;
constexpr size_t kMaxResponseBytes = size_t{64} << 20;
constexpr int64_t kResponseTimeoutMillis = 30'000;
// Layers that own spans; the traced run reports each one's self time.
constexpr const char* kLayers[] = {"bench",     "table",         "typedet",
                                   "trainer",   "selection",     "serialization",
                                   "predictor", "serve"};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
};

// What one process reports; run.py aggregates several.
struct Report {
  double setup_s = 0.0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;  // traced run only
  std::vector<double> latencies_ms;     // one per completed check
  double checks = 0.0;                  // completed checks and
  double check_seconds = 0.0;           // the wall time they took
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few failures

  void Fail(std::string what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
};

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench_driver: %s\n", what.c_str());
  std::exit(1);
}

double SecondsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

double MicrosSince(SteadyClock::time_point t0) {
  return SecondsSince(t0) * 1e6;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Nearest-rank percentile, q in (0, 1]; 0 without samples.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

using Counters = std::map<std::string, uint64_t>;

Counters ReadCounters() {
  Counters out;
  for (const metrics::MetricValue& m :
       metrics::Registry::Global().Snapshot()) {
    if (m.kind == metrics::MetricKind::kCounter) out[m.name] = m.counter;
  }
  return out;
}

double Delta(const Counters& before, const Counters& after,
             const std::string& name) {
  auto value = [&](const Counters& counters) {
    auto it = counters.find(name);
    return it == counters.end() ? uint64_t{0} : it->second;
  };
  return static_cast<double>(value(after) - value(before));
}

// Concurrent checks: closed-loop serve clients, and quality-set checking
// threads. Two, so that load from other tenants of a 4-core machine moves
// the latencies less than saturating every core would.
size_t Clients() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 2);
}

// Independent input streams drawn from one process seed.
enum class Stream : uint64_t { kCorpus = 1, kQuality, kHotPool, kColdPool };

uint64_t StreamSeed(uint64_t seed, Stream stream) {
  return util::SplitMix64(
      seed ^ (static_cast<uint64_t>(stream) * 0x9e3779b97f4a7c15ULL));
}

table::Corpus MakeCorpus(uint64_t seed) {
  return datagen::GenerateCorpus(datagen::RelationalTablesProfile(
      kCorpusColumns, StreamSeed(seed, Stream::kCorpus)));
}

datagen::LabeledBenchmark MakeBench(size_t columns, uint64_t seed,
                                    Stream stream) {
  return datagen::GenerateBenchmark(
      datagen::RtBenchProfile(columns, StreamSeed(seed, stream)));
}

// -------------------------------------------------------------- training --

// The trained state a workload continues from.
struct Trained {
  std::unique_ptr<typedet::EvalFunctionSet> evals;
  core::TrainedModel model;
  std::vector<core::Sdc> selected;  // the fine-selected rules, as saved
  std::vector<core::Sdc> rules;     // loaded back from the saved rule file
};

// Loads the saved rule file back against the function set it was trained
// with. It must yield every saved rule, byte for byte, from a training run
// that skipped no evaluation family.
std::vector<core::Sdc> LoadBack(const std::string& path, const Trained& t,
                                Report* report) {
  size_t unresolved = 0;
  util::Result<std::vector<core::Sdc>> loaded =
      core::TryLoadRulesFromFile(path, *t.evals, &unresolved);
  if (!loaded.ok()) {
    report->Fail("loading " + path + ": " + loaded.status().ToString());
    return {};
  }
  if (t.selected.empty() || unresolved != 0 || t.model.evals_skipped != 0 ||
      core::SerializeRules(*loaded) != core::SerializeRules(t.selected)) {
    report->Fail("rule file round trip: " + std::to_string(loaded->size()) +
                 " of " + std::to_string(t.selected.size()) +
                 " rules loaded back, " + std::to_string(unresolved) +
                 " unresolved, " + std::to_string(t.model.evals_skipped) +
                 " evaluation families skipped");
  }
  return std::move(*loaded);
}

// `autotest train` once the corpus is in memory: the calls
// `AutoTest::Train` → `Select(kFineSelect)` make, then the rule file save,
// each inside its own span (a no-op when tracing is off). Sets train_s.
Trained TrainOp(const table::Corpus& corpus, size_t synthetic,
                const std::string& rules_path, Tracer& tracer,
                Report* report) {
  core::AutoTestConfig config;
  config.eval_options.embedding_centroids_per_model = kCentroids;
  config.train_options.synthetic_count = synthetic;

  Trained t;
  core::SelectionResult coarse;
  core::SelectionResult fine;
  util::Status saved;
  const Counters counters0 = ReadCounters();
  const double cpu0 = CpuSeconds();
  const auto t0 = SteadyClock::now();
  {
    Tracer::Span root(tracer, "train", "bench");
    {
      Tracer::Span span(tracer, "typedet.evals_build", "typedet");
      t.evals = std::make_unique<typedet::EvalFunctionSet>(
          typedet::EvalFunctionSet::Build(corpus, config.eval_options));
    }
    {
      Tracer::Span span(tracer, "trainer.train", "trainer");
      t.model = core::TrainAutoTest(corpus, *t.evals, config.train_options);
    }
    {
      Tracer::Span span(tracer, "selection.coarse_then_fine", "selection");
      fine = core::CoarseThenFineSelect(t.model, config.selection_options,
                                        &coarse);
    }
    for (size_t i : fine.selected) {
      t.selected.push_back(t.model.constraints[i]);
    }
    Tracer::Span span(tracer, "serialization.save", "serialization");
    saved = core::TrySaveRulesToFile(t.selected, rules_path);
  }
  const double train_s = SecondsSince(t0);
  const double cpu_s = CpuSeconds() - cpu0;
  const Counters counters1 = ReadCounters();

  report->e2e["train_s"] = train_s;
  ++report->attempted;
  if (saved.ok()) {
    t.rules = LoadBack(rules_path, t, report);
  } else {
    report->Fail("saving " + rules_path + ": " + saved.ToString());
  }
  if (!tracer.enabled()) return t;

  const core::TrainedModel& m = t.model;
  const auto spans = tracer.ByName();
  auto span_s = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.seconds;
  };
  std::map<std::string, double>& layer = report->layer;
  layer["typedet.evals_build_s"] = span_s("typedet.evals_build");
  layer["trainer.train_s"] = span_s("trainer.train");
  layer["trainer.candidate_gen_thread_s"] = m.timings.candidate_gen_seconds;
  layer["trainer.synthetic_thread_s"] = m.timings.synthetic_seconds;
  layer["trainer.effective_parallelism"] =
      (m.timings.candidate_gen_seconds + m.timings.synthetic_seconds) /
      layer["trainer.train_s"];
  layer["process.cpu_s"] = cpu_s;
  layer["trainer.candidates_enumerated"] =
      static_cast<double>(m.candidates_enumerated);
  layer["trainer.candidates_pruned"] =
      static_cast<double>(m.candidates_pruned);
  layer["trainer.candidates_rejected"] =
      static_cast<double>(m.candidates_rejected);
  layer["trainer.constraints"] = static_cast<double>(m.constraints.size());
  layer["trainer.evals_skipped"] = static_cast<double>(m.evals_skipped);
  for (const char* name : {"parallel.invocations", "parallel.items",
                           "parallel.chunks", "parallel.steals"}) {
    layer[name] = Delta(counters0, counters1, name);
  }
  const double slots = Delta(counters0, counters1, "parallel.slots_offered");
  layer["parallel.utilization"] =
      slots > 0 ? Delta(counters0, counters1, "parallel.participants") / slots
                : 0.0;
  layer["selection.coarse_s"] = coarse.seconds;
  layer["selection.fine_s"] = fine.seconds;
  layer["lp.columns"] = static_cast<double>(fine.lp_num_variables);
  layer["lp.rows"] = static_cast<double>(fine.lp_num_rows);
  layer["selection.rules_selected"] =
      static_cast<double>(fine.selected.size());
  layer["selection.warm_started"] = fine.warm_started ? 1.0 : 0.0;
  layer["selection.used_greedy"] = fine.used_greedy ? 1.0 : 0.0;
  layer["serialization.save_s"] = span_s("serialization.save");
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(rules_path, ec);
  layer["serialization.rule_bytes"] = ec ? 0.0 : static_cast<double>(bytes);
  const Tracer::Totals& root = spans.at("train");
  layer["trace.train_residual_share"] = root.self_seconds / root.seconds;
  return t;
}

// ------------------------------------------------- checking and quality --

bool SameDetections(const std::vector<core::CellDetection>& a,
                    const std::vector<core::CellDetection>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const core::CellDetection& x,
                       const core::CellDetection& y) {
                      return x.row == y.row && x.value == y.value &&
                             x.confidence == y.confidence &&
                             x.rule_index == y.rule_index &&
                             x.explanation == y.explanation;
                    });
}

// Adapts a predictor to the eval harness, times each column's check and
// keeps its detections for the correctness pass.
class TimedDetector final : public eval::ErrorDetector {
 public:
  explicit TimedDetector(const core::SdcPredictor* predictor)
      : predictor_(predictor) {}

  std::string name() const override { return "fine-select"; }

  std::vector<eval::ScoredCell> Detect(
      const table::Column& column) const override {
    const auto t0 = SteadyClock::now();
    std::vector<core::CellDetection> detections = predictor_->Predict(column);
    const double ms = SecondsSince(t0) * 1e3;
    std::vector<eval::ScoredCell> cells;
    for (const core::CellDetection& d : detections) {
      cells.push_back({d.row, d.confidence});
    }
    std::lock_guard<std::mutex> lock(mu_);
    latencies_ms_.push_back(ms);
    detections_[&column] = std::move(detections);
    return cells;
  }

  std::vector<double> TakeLatencies() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(latencies_ms_);
  }

  // Detections of a column this detector checked; nullptr otherwise.
  const std::vector<core::CellDetection>* Detections(
      const table::Column& column) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = detections_.find(&column);
    return it == detections_.end() ? nullptr : &it->second;
  }

 private:
  const core::SdcPredictor* predictor_;
  mutable std::mutex mu_;
  mutable std::vector<double> latencies_ms_;
  mutable std::map<const table::Column*, std::vector<core::CellDetection>>
      detections_;
};

// Table 4 quality of the saved rules on the held-out RT-Bench, checked on
// Clients() threads. On train and select these checks are also the
// workload's online checking (paper Fig. 12: latency per column). After
// the timed pass every check must equal the prediction of the rules as
// selected, before the save.
void Quality(const Trained& t, const datagen::LabeledBenchmark& bench,
             bool record_checks, Tracer& tracer, Report* report) {
  const core::SdcPredictor predictor(t.rules);
  TimedDetector detector(&predictor);
  const auto t0 = SteadyClock::now();
  eval::BenchmarkRun run;
  {
    Tracer::Span span(tracer, "eval.quality", "predictor");
    run = eval::RunDetector(detector, bench, Clients());
  }
  const double seconds = SecondsSince(t0);
  report->e2e["pr_auc"] = run.pr_auc;
  report->e2e["f1_at_p80"] = run.f1_at_p08;

  // Untimed, so on every core.
  const core::SdcPredictor reference(t.selected);
  std::vector<char> same(bench.columns.size(), 0);
  util::parallel::ParallelFor(
      bench.columns.size(),
      [&](size_t c) {
        const table::Column& column = bench.columns[c].column;
        const std::vector<core::CellDetection>* checked =
            detector.Detections(column);
        same[c] = checked != nullptr &&
                  SameDetections(*checked, reference.Predict(column));
      });
  for (size_t c = 0; c < bench.columns.size(); ++c) {
    ++report->attempted;
    if (!same[c]) {
      report->Fail("quality-set column " + std::to_string(c) +
                   ": the loaded rules' prediction differs from the "
                   "selected rules'");
    }
  }
  if (!record_checks) return;
  report->check_seconds += seconds;
  report->checks += static_cast<double>(bench.columns.size());
  report->latencies_ms = detector.TakeLatencies();
}

// Interning alone, on the same corpus (TrainAutoTest interns internally).
void InternProbe(const table::Corpus& corpus, Tracer& tracer,
                 Report* report) {
  const auto t0 = SteadyClock::now();
  Tracer::Span span(tracer, "table.intern", "table");
  const table::ColumnStore store = table::ColumnStore::FromCorpus(corpus);
  report->layer["table.intern_s"] = SecondsSince(t0);
  report->layer["table.pool_values"] = static_cast<double>(store.pool_size());
  report->layer["table.arena_bytes"] =
      static_cast<double>(store.arena_bytes());
}

struct Inputs {
  table::Corpus corpus;
  datagen::LabeledBenchmark quality;
};

// Generates the training corpus and the quality set kInputRepeats times
// and keeps the last; `*seconds` is the median time of one generation.
Inputs MakeInputs(uint64_t seed, double* seconds) {
  Inputs inputs;
  std::vector<double> times;
  for (size_t i = 0; i < kInputRepeats; ++i) {
    const auto t0 = SteadyClock::now();
    inputs.corpus = MakeCorpus(seed);
    inputs.quality = MakeBench(kQualityColumns, seed, Stream::kQuality);
    times.push_back(SecondsSince(t0));
  }
  *seconds = Percentile(times, 0.5);
  return inputs;
}

void RunTrainOrSelect(const Args& args, bool select, Tracer& tracer,
                      Report* report) {
  const auto [corpus, quality] = MakeInputs(args.seed, &report->setup_s);
  const Trained trained =
      TrainOp(corpus, select ? kSelectSynthetic : kTrainSynthetic,
              args.work_dir + "/rules.sdc", tracer, report);
  Quality(trained, quality, /*record_checks=*/true, tracer, report);
  if (tracer.enabled()) InternProbe(corpus, tracer, report);
}

// --------------------------------------------------------------- serving --

// A one-column `check` request, framed as `autotest query` frames a CSV.
std::string CheckPayload(const table::Column& column) {
  table::Table csv;
  csv.columns.push_back(column);
  serve::Request request;
  request.verb = "check";
  request.body = table::WriteCsv(csv);
  return serve::SerializeRequest(request);
}

// The response body session.cc builds for a one-column check.
std::string ExpectedBody(const core::SdcPredictor& predictor,
                         const table::Column& column) {
  std::string body;
  if (table::IsMostlyNumeric(column)) return body;  // skipped, as in check
  for (const core::CellDetection& d : predictor.Predict(column)) {
    char confidence[32];
    std::snprintf(confidence, sizeof(confidence), "%.2f", d.confidence);
    body += column.name + "\t" + std::to_string(d.row) + "\t" + d.value +
            "\t" + confidence + "\t" + d.explanation + "\n";
  }
  return body;
}

// The columns a serve workload sends, their request payloads, and their
// in-process response bodies, computed when first needed.
struct Pool {
  datagen::LabeledBenchmark bench;
  std::vector<std::string> payloads;
  std::vector<std::optional<std::string>> expected;

  size_t size() const { return payloads.size(); }
  const table::Column& column(size_t i) const {
    return bench.columns[i].column;
  }
};

// Appends "~<i in base 36>" to every value of column i. Generated values
// never contain '~', so no two salted columns share a value and none
// matches a value the training or the quality set carried: every value a
// cold request sends is one no cache of the process has seen.
void Salt(datagen::LabeledBenchmark* bench) {
  for (size_t i = 0; i < bench->columns.size(); ++i) {
    std::string salt;
    for (size_t n = i; salt.empty() || n > 0; n /= 36) {
      salt.insert(salt.begin(), "0123456789abcdefghijklmnopqrstuvwxyz"[n % 36]);
    }
    salt.insert(salt.begin(), '~');
    for (std::string& value : bench->columns[i].column.values) value += salt;
  }
}

Pool MakePool(size_t columns, uint64_t seed, Stream stream, bool salted) {
  Pool pool;
  pool.bench = MakeBench(columns, seed, stream);
  if (salted) Salt(&pool.bench);
  pool.payloads.reserve(columns);
  for (const datagen::LabeledColumn& lc : pool.bench.columns) {
    pool.payloads.push_back(CheckPayload(lc.column));
  }
  pool.expected.resize(pool.payloads.size());
  return pool;
}

struct Exchange {
  bool ok = false;
  double latency_ms = 0.0;
  std::string body;   // the response body when ok
  std::string error;  // what went wrong otherwise
};

// One request over loopback: connect, send the frame, read and parse the
// response; the latency stops there. The client then reads to EOF, so the
// server closes first and holds the TIME_WAIT state: tens of thousands of
// short connections never use up the client's ephemeral ports.
Exchange RoundTrip(uint16_t port, const std::string& payload) {
  Exchange ex;
  const auto t0 = SteadyClock::now();
  util::Result<int> fd = serve::TryConnect("127.0.0.1", port);
  if (!fd.ok()) {
    ex.error = fd.status().ToString();
    return ex;
  }
  if (util::Status sent = serve::TryWriteFrame(*fd, payload); !sent.ok()) {
    ex.error = sent.ToString();
  } else if (util::Result<std::string> frame = serve::TryReadFrame(
                 *fd, kMaxResponseBytes, kResponseTimeoutMillis);
             !frame.ok()) {
    ex.error = frame.status().ToString();
  } else if (util::Result<serve::Response> response =
                 serve::TryParseResponse(*frame);
             !response.ok()) {
    ex.error = response.status().ToString();
  } else {
    ex.latency_ms = SecondsSince(t0) * 1e3;
    if (response->code == util::StatusCode::kOk) {
      ex.ok = true;
      ex.body = std::move(response->body);
    } else {
      ex.error = std::string(util::StatusCodeName(response->code)) + ": " +
                 response->body;
    }
  }
  timeval timeout{5, 0};
  ::setsockopt(*fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  char sink[256];
  while (::recv(*fd, sink, sizeof(sink), 0) > 0) {
  }
  ::close(*fd);
  return ex;
}

struct Sent {
  size_t seq = 0;
  size_t column = 0;
  Exchange ex;
};

// Closed loop: each client sends its next request when the previous
// response has been parsed, until `seconds` have passed or `limit`
// requests were issued. serve_hot cycles through its pool; serve_cold
// takes each column once. Returns the requests in issue order.
std::vector<Sent> ClosedLoop(uint16_t port,
                             const std::vector<std::string>& payloads,
                             bool cycle, size_t limit, double seconds,
                             Tracer& tracer, double* window_s) {
  std::atomic<size_t> next{0};
  std::vector<std::vector<Sent>> per_client(Clients());
  const auto start = SteadyClock::now();
  const auto end = start + std::chrono::duration_cast<SteadyClock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < per_client.size(); ++c) {
    threads.emplace_back([&, c] {
      while (SteadyClock::now() < end) {
        const size_t seq = next.fetch_add(1, std::memory_order_relaxed);
        if (seq >= limit) return;
        const size_t column = cycle ? seq % payloads.size() : seq;
        Tracer::Span span(tracer, "serve.round_trip", "serve", seq + 1);
        per_client[c].push_back(
            {seq, column, RoundTrip(port, payloads[column])});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  *window_s = SecondsSince(start);
  std::vector<Sent> sent;
  for (std::vector<Sent>& requests : per_client) {
    for (Sent& s : requests) sent.push_back(std::move(s));
  }
  std::sort(sent.begin(), sent.end(),
            [](const Sent& a, const Sent& b) { return a.seq < b.seq; });
  return sent;
}

// Each response must be OK and equal the in-process prediction of its
// column; anything else is a failed operation.
void Verify(const std::vector<Sent>& sent,
            const core::SdcPredictor& reference, Pool* pool,
            Report* report) {
  std::vector<size_t> missing;
  for (const Sent& s : sent) {
    if (!pool->expected[s.column]) missing.push_back(s.column);
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
  util::parallel::ParallelFor(missing.size(), [&](size_t i) {
    pool->expected[missing[i]] =
        ExpectedBody(reference, pool->column(missing[i]));
  });
  for (const Sent& s : sent) {
    ++report->attempted;
    if (!s.ex.ok) {
      report->Fail("request for column " + std::to_string(s.column) + ": " +
                   s.ex.error);
    } else if (s.ex.body != *pool->expected[s.column]) {
      report->Fail("response for column " + std::to_string(s.column) +
                   " differs from the in-process prediction");
    }
  }
}

// Share of the timed requests' distinct values (a predictor evaluates
// each distinct value of a column once) that the process met for the
// first time: not in the training corpus, whose values the trainer and its
// synthetic columns scored, nor in the warm-up or an earlier request.
double FreshValueShare(const table::Corpus& corpus, const Pool& pool,
                       const std::vector<Sent>& warmup,
                       const std::vector<Sent>& window) {
  std::unordered_set<std::string_view> seen;
  for (const table::Column& column : corpus) {
    seen.insert(column.values.begin(), column.values.end());
  }
  for (const Sent& s : warmup) {
    const std::vector<std::string>& values = pool.column(s.column).values;
    seen.insert(values.begin(), values.end());
  }
  size_t fresh = 0;
  size_t total = 0;
  for (const Sent& s : window) {
    const std::vector<std::string>& values = pool.column(s.column).values;
    const std::unordered_set<std::string_view> distinct(values.begin(),
                                                        values.end());
    total += distinct.size();
    for (std::string_view v : distinct) fresh += seen.count(v) == 0 ? 1 : 0;
    seen.insert(distinct.begin(), distinct.end());
  }
  return total == 0 ? 0.0
                    : static_cast<double>(fresh) / static_cast<double>(total);
}

// The traced run's serve-side layer metrics. A fixed-size replay through
// the server gives exact registry deltas, which the timed window cannot:
// how many requests it fits depends on speed. Then each layer is called
// directly on its own slice of requests. On serve_cold the slices are the
// pool's last columns, which the window never sends.
void ServeProbes(bool hot, uint16_t port, serve::SnapshotStore& store,
                 const serve::ServeOptions& options,
                 const core::SdcPredictor& reference, Pool* pool,
                 Tracer& tracer, Report* report) {
  auto column_of = [&](size_t slice, size_t i) {
    return hot ? i % pool->size()
               : pool->size() - (3 - slice) * kProbeRequests + i;
  };
  std::map<std::string, double>& layer = report->layer;

  const Counters before = ReadCounters();
  std::vector<Sent> replay;
  for (size_t i = 0; i < kProbeRequests; ++i) {
    const size_t c = column_of(0, i);
    replay.push_back({i, c, RoundTrip(port, pool->payloads[c])});
  }
  const Counters after = ReadCounters();
  for (const char* name :
       {"serve.requests", "serve.requests_ok", "serve.requests_error",
        "serve.requests_shed", "serve.budget_charges",
        "predictor.detections"}) {
    layer[name] = Delta(before, after, name);
  }
  // After the deltas: the in-process predictions count detections too.
  Verify(replay, reference, pool, report);

  std::vector<double> parse_us;
  std::vector<double> csv_us;
  std::vector<double> predict_us;
  std::vector<double> handle_us;
  for (size_t i = 0; i < kProbeRequests; ++i) {
    const uint64_t id = kProbeRequestIds + i;
    report->attempted += 2;
    auto t0 = SteadyClock::now();
    util::Result<serve::Request> request = [&] {
      Tracer::Span span(tracer, "wire.parse", "serve", id);
      return serve::TryParseRequest(pool->payloads[column_of(0, i)]);
    }();
    parse_us.push_back(MicrosSince(t0));
    if (!request.ok()) {
      report->Fail("probe request parse: " + request.status().ToString());
      continue;
    }
    t0 = SteadyClock::now();
    util::Result<table::Table> parsed = [&] {
      Tracer::Span span(tracer, "table.csv_parse", "table", id);
      return table::TryParseCsv(request->body);
    }();
    csv_us.push_back(MicrosSince(t0));
    if (!parsed.ok()) {
      report->Fail("probe csv parse: " + parsed.status().ToString());
    }
  }

  const std::shared_ptr<const serve::RuleSetSnapshot> snapshot = store.Get();
  for (size_t i = 0; i < kProbeRequests; ++i) {
    util::ResourceBudget resources(
        util::ResourceLimits{.max_bytes = options.max_request_bytes,
                             .max_rows = options.max_request_rows,
                             .max_cells = options.max_request_cells});
    core::PredictBudget budget;
    budget.clock = &util::RealClock();
    budget.deadline_micros =
        util::RealClock().NowMicros() + options.default_deadline_micros;
    budget.resources = &resources;
    ++report->attempted;
    const auto t0 = SteadyClock::now();
    util::Result<core::BudgetedPrediction> prediction = [&] {
      Tracer::Span span(tracer, "predictor.predict", "predictor",
                        kProbeRequestIds + kProbeRequests + i);
      return snapshot->predictor().TryPredict(pool->column(column_of(1, i)),
                                              budget);
    }();
    predict_us.push_back(MicrosSince(t0));
    if (!prediction.ok() || prediction->expired) {
      report->Fail("probe predict on column " +
                   std::to_string(column_of(1, i)));
    }
  }

  for (size_t i = 0; i < kProbeRequests; ++i) {
    ++report->attempted;
    const auto t0 = SteadyClock::now();
    const serve::Response response = [&] {
      Tracer::Span span(tracer, "session.handle", "serve",
                        kProbeRequestIds + 2 * kProbeRequests + i);
      return serve::HandlePayload(pool->payloads[column_of(2, i)], store,
                                  options, /*admitted_micros=*/-1);
    }();
    handle_us.push_back(MicrosSince(t0));
    if (response.code != util::StatusCode::kOk) {
      report->Fail("probe handle: " + response.body);
    }
  }
  layer["wire.parse_us"] = Percentile(parse_us, 0.5);
  layer["table.csv_parse_us"] = Percentile(csv_us, 0.5);
  layer["predictor.predict_us"] = Percentile(predict_us, 0.5);
  layer["session.handle_us"] = Percentile(handle_us, 0.5);
}

void RunServe(const Args& args, bool hot, Tracer& tracer, Report* report) {
  double inputs_s = 0.0;
  const auto [corpus, quality] = MakeInputs(args.seed, &inputs_s);
  const auto t0 = SteadyClock::now();
  Pool pool = hot ? MakePool(kHotPoolColumns, args.seed, Stream::kHotPool,
                             /*salted=*/false)
                  : MakePool(kColdPoolColumns, args.seed, Stream::kColdPool,
                             /*salted=*/true);
  const std::string rules_path = args.work_dir + "/rules.sdc";
  const Trained trained =
      TrainOp(corpus, kTrainSynthetic, rules_path, tracer, report);
  const core::SdcPredictor reference(trained.rules);

  serve::SnapshotStore store(trained.evals.get(), rules_path);
  if (util::Status loaded = store.TryReload(); !loaded.ok()) {
    Fatal("loading " + rules_path + ": " + loaded.ToString());
  }
  const serve::ServeOptions options;
  serve::Server server(&store, options);
  if (util::Status started = server.Start(); !started.ok()) {
    Fatal("starting the server: " + started.ToString());
  }

  std::vector<Sent> warmup;
  if (hot) {
    // One pass over the pool before timing, so every request value is
    // already in the zoo and embedding caches.
    for (size_t i = 0; i < pool.size(); ++i) {
      warmup.push_back({i, i, RoundTrip(server.port(), pool.payloads[i])});
    }
    Verify(warmup, reference, &pool, report);
  }
  // The training is train_s's; set-up is everything else before the window.
  report->setup_s = inputs_s + SecondsSince(t0) - report->e2e["train_s"];

  const size_t limit = hot ? SIZE_MAX : pool.size() - 3 * kProbeRequests;
  double window_s = 0.0;
  const std::vector<Sent> window =
      ClosedLoop(server.port(), pool.payloads, hot, limit, args.seconds,
                 tracer, &window_s);
  if (window.size() >= limit) {
    std::fprintf(stderr,
                 "perfbench_driver: the cold pool ran out after %zu "
                 "requests, before %.1f s\n",
                 limit, args.seconds);
  }
  for (const Sent& s : window) {
    if (s.ex.ok) report->latencies_ms.push_back(s.ex.latency_ms);
  }
  report->checks = static_cast<double>(report->latencies_ms.size());
  report->check_seconds = window_s;
  Verify(window, reference, &pool, report);

  if (tracer.enabled()) {
    ServeProbes(hot, server.port(), store, options, reference, &pool, tracer,
                report);
    std::map<std::string, double>& layer = report->layer;
    layer["server.transport_us"] =
        std::max(0.0, Percentile(report->latencies_ms, 0.5) * 1e3 -
                          layer["session.handle_us"]);
    layer["client.latency_p99_ms"] = Percentile(report->latencies_ms, 0.99);
    layer["workload.fresh_value_share"] =
        FreshValueShare(corpus, pool, warmup, window);
  }
  Quality(trained, quality, /*record_checks=*/false, tracer, report);
  if (!server.StopAndDrain().drained_clean) {
    report->Fail("the server did not drain cleanly");
  }
  if (tracer.enabled()) InternProbe(corpus, tracer, report);
}

// ----------------------------------------------------------------- main --

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintReport(const Report& r) {
  std::string out = "{\"setup_s\":" + Number(r.setup_s);
  auto object = [&](const char* key,
                    const std::map<std::string, double>& values) {
    out += std::string(",\"") + key + "\":{";
    const char* sep = "";
    for (const auto& [name, value] : values) {
      out += sep;
      out += "\"" + name + "\":" + Number(value);
      sep = ",";
    }
    out += "}";
  };
  object("e2e", r.e2e);
  object("layer", r.layer);
  out += ",\"checks\":" + Number(r.checks) +
         ",\"check_seconds\":" + Number(r.check_seconds) +
         ",\"attempted\":" + std::to_string(r.attempted) +
         ",\"failed\":" + std::to_string(r.failed) + ",\"errors\":[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + metrics::JsonEscape(r.errors[i]) + "\"";
  }
  out += "],\"latencies_ms\":[";
  char buf[32];
  for (size_t i = 0; i < r.latencies_ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.6g", i == 0 ? "" : ",",
                  r.latencies_ms[i]);
    out += buf;
  }
  out += "]}\n";
  std::fwrite(out.data(), 1, out.size(), stdout);
  std::fflush(stdout);
}

std::optional<Args> ParseArgs(int argc, char** argv) {
  if (argc % 2 != 1) return std::nullopt;
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      return std::nullopt;
    }
  }
  const bool known = args.workload == "train" || args.workload == "select" ||
                     args.workload == "serve_hot" ||
                     args.workload == "serve_cold";
  if (!known || !(args.seconds > 0.0) || args.work_dir.empty()) {
    return std::nullopt;
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "train|select|serve_hot|serve_cold --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n");
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);  // a vanished peer is an error, not a kill
  std::error_code ec;
  std::filesystem::create_directories(args->work_dir, ec);
  if (ec) Fatal("cannot create " + args->work_dir + ": " + ec.message());

  Tracer tracer(args->trace);
  Report report;
  if (args->workload == "train" || args->workload == "select") {
    RunTrainOrSelect(*args, args->workload == "select", tracer, &report);
  } else {
    RunServe(*args, args->workload == "serve_hot", tracer, &report);
  }
  report.e2e["peak_rss_mb"] = PeakRssMb();
  if (tracer.enabled()) {
    const auto layers = tracer.ByLayer();
    for (const char* layer : kLayers) {
      auto it = layers.find(layer);
      report.layer[std::string("self.") + layer + "_s"] =
          it == layers.end() ? 0.0 : it->second.self_seconds;
    }
    report.layer["trace.spans"] = static_cast<double>(tracer.size());
    const std::string path = args->work_dir + "/trace.jsonl";
    if (!tracer.WriteJsonLines(path)) Fatal("cannot write " + path);
  }
  PrintReport(report);
  return 0;
}
