// autotest — command-line front end for the Auto-Test library.
//
//   autotest train --corpus relational --columns 2000 --out rules.sdc
//   autotest check data.csv more.csv --rules rules.sdc
//   autotest check data.csv                       (trains a quick model)
//   autotest rules rules.sdc
//   autotest serve --rules rules.sdc --port N     (long-lived daemon)
//   autotest query data.csv --port N              (client for serve)
//
// Only `train` and `check` without `--rules` train. Rule files record the
// training recipe (corpus profile, sizes, shard count) in a side header,
// and `check --rules`, `rules` and `serve` rebuild from it the corpus and
// the evaluation functions the rules resolve against, without training.
// When training degraded to a shard quorum (lost shards under faults),
// the recipe also records which shards were lost and why, so the rebuild
// reproduces the exact same degraded corpus instead of silently
// unresolving every rule.
//
// Transient I/O failures (kIoError / kResourceExhausted, including injected
// chaos faults) are retried with deterministic exponential backoff;
// permanent failures (kDataLoss / kInvalidArgument) fail fast. See
// DESIGN.md §4e for the retry & degradation contract.
//
// Exit codes (one per failure class, so scripts can branch on the kind of
// failure rather than scraping stderr):
//   0  success
//   1  internal error
//   2  usage error (bad command line)
//   3  invalid input (malformed/invalid CSV, rule file or recipe)
//   4  missing file (CSV, rules or recipe not found)
//   5  I/O failure (read/write/rename failed, injected I/O faults)
//   6  resource exhausted (input over limits, injected allocation faults,
//      expired request deadlines)
//   7  server refused / shed (client-mode RESOURCE_EXHAUSTED: the serving
//      tier shed the request under load, the tenant's circuit breaker is
//      open, or the server is unreachable — retryable with backoff)
//   8  quota rejected (client-mode RESOURCE_EXHAUSTED with reason=quota:
//      the tenant's token bucket is empty; retrying immediately cannot
//      help until the bucket refills)

#include <sys/stat.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/auto_test.h"
#include "core/serialization.h"
#include "datagen/corpus_gen.h"
#include "serve/admission.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/snapshot.h"
#include "serve/wire.h"
#include "table/csv.h"
#include "table/shard_loader.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/parallel/thread_pool.h"
#include "util/retry.h"
#include "util/status.h"
#include "util/string_util.h"

namespace {

using namespace autotest;
using util::Result;
using util::Status;
using util::StatusCode;

// Human-readable report lines go here. Defaults to stdout; main() moves
// it to stderr under `--metrics-dump=-` so stdout carries exactly one
// machine-readable JSON document.
FILE* g_report = stdout;

constexpr int kExitOk = 0;
constexpr int kExitInternal = 1;
constexpr int kExitUsage = 2;
constexpr int kExitInvalidInput = 3;
constexpr int kExitNotFound = 4;
constexpr int kExitIo = 5;
constexpr int kExitResource = 6;
constexpr int kExitShed = 7;
constexpr int kExitQuota = 8;

int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return kExitOk;
    case StatusCode::kInvalidArgument:
    case StatusCode::kDataLoss:
      return kExitInvalidInput;
    case StatusCode::kNotFound:
      return kExitNotFound;
    case StatusCode::kIoError:
      return kExitIo;
    case StatusCode::kResourceExhausted:
    case StatusCode::kDeadlineExceeded:
      return kExitResource;
    case StatusCode::kFailedPrecondition:
    case StatusCode::kInternal:
      return kExitInternal;
  }
  return kExitInternal;
}

// Prints the structured diagnostic and maps it to the exit code.
int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return ExitCodeFor(status);
}

// One retry policy for every CLI-level I/O operation (recipe/rules
// load/save, per-table CSV reads, shard loads). --max-retries N means N
// retries beyond the first attempt. Backoffs are kept short: the CLI
// retries in-process faults and local-disk hiccups, not remote services.
util::RetryPolicy CliRetryPolicy(size_t max_retries) {
  util::RetryPolicy policy;
  policy.max_attempts = static_cast<int>(max_retries) + 1;
  policy.initial_backoff_micros = 5'000;  // 5 ms
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_micros = 100'000;  // 100 ms
  return policy;
}

/// Degraded-mode provenance: which shards were lost at train time and the
/// final StatusCode each died with. Recorded in the recipe so `check` can
/// rebuild the exact degraded corpus.
struct LostShard {
  size_t shard = 0;
  StatusCode code = StatusCode::kInternal;
};

struct Recipe {
  std::string corpus = "relational";
  size_t columns = 2000;
  size_t centroids = 120;
  size_t synthetic = 800;
  /// Corpus generation shards; 1 = monolithic (and bit-compatible with
  /// pre-sharding recipe files, which load as shards=1).
  size_t shards = 8;
  std::vector<LostShard> lost;  // empty = trained on the full corpus
};

bool IsKnownCorpus(const std::string& name) {
  return name == "relational" || name == "spreadsheet" || name == "tablib";
}

std::string RecipePath(const std::string& rules_path) {
  return rules_path + ".recipe";
}

[[nodiscard]] Status ValidateRecipe(const Recipe& r,
                                    const std::string& source) {
  if (!IsKnownCorpus(r.corpus)) {
    return util::InvalidArgumentError(
        source + ": field 'corpus' must be relational, spreadsheet or "
        "tablib, got '" + r.corpus + "'");
  }
  if (r.columns == 0) {
    return util::InvalidArgumentError(source +
                                      ": field 'columns' must be positive");
  }
  if (r.centroids == 0) {
    return util::InvalidArgumentError(
        source + ": field 'centroids' must be positive");
  }
  if (r.shards == 0) {
    return util::InvalidArgumentError(source +
                                      ": field 'shards' must be positive");
  }
  if (r.lost.size() >= r.shards) {
    return util::InvalidArgumentError(
        source + ": degraded provenance loses all " +
        std::to_string(r.shards) + " shards");
  }
  for (const LostShard& l : r.lost) {
    if (l.shard >= r.shards) {
      return util::InvalidArgumentError(
          source + ": degraded shard index " + std::to_string(l.shard) +
          " out of range (have " + std::to_string(r.shards) + " shards)");
    }
  }
  return Status::Ok();
}

std::string FormatDegradedLine(const Recipe& r) {
  std::string out = "degraded " + std::to_string(r.lost.size()) + "/" +
                    std::to_string(r.shards);
  for (size_t i = 0; i < r.lost.size(); ++i) {
    out += i == 0 ? " " : ",";
    out += std::to_string(r.lost[i].shard);
    out += ":";
    out += util::StatusCodeName(r.lost[i].code);
  }
  return out;
}

[[nodiscard]] Status ParseDegradedLine(const std::string& line,
                                       const std::string& source,
                                       Recipe* r) {
  auto malformed = [&](const std::string& why) {
    return util::DataLossError(
        source + ": degraded provenance line is malformed (" + why +
        "); want: degraded <lost>/<total> <shard>:<CODE>,...");
  };
  std::istringstream in(line);
  std::string tag, counts, entries;
  if (!(in >> tag >> counts >> entries) || tag != "degraded") {
    return malformed("expected 3 fields");
  }
  size_t slash = counts.find('/');
  if (slash == std::string::npos) return malformed("missing '/' in counts");
  char* endp = nullptr;
  unsigned long long lost_n =
      std::strtoull(counts.substr(0, slash).c_str(), &endp, 10);
  unsigned long long total_n =
      std::strtoull(counts.substr(slash + 1).c_str(), &endp, 10);
  if (total_n != r->shards) {
    return malformed("total " + std::to_string(total_n) +
                     " does not match shard count " +
                     std::to_string(r->shards));
  }
  for (std::string_view entry : util::Split(entries, ',')) {
    size_t colon = entry.find(':');
    if (colon == std::string_view::npos) {
      return malformed("entry '" + std::string(entry) + "' missing ':'");
    }
    LostShard l;
    std::string idx(entry.substr(0, colon));
    char* idx_end = nullptr;
    l.shard = static_cast<size_t>(std::strtoull(idx.c_str(), &idx_end, 10));
    if (idx_end != idx.c_str() + idx.size()) {
      return malformed("shard index '" + idx + "' is not a number");
    }
    auto code = util::StatusCodeFromName(entry.substr(colon + 1));
    if (!code.has_value()) {
      return malformed("unknown status code '" +
                       std::string(entry.substr(colon + 1)) + "'");
    }
    l.code = *code;
    r->lost.push_back(l);
  }
  if (r->lost.size() != lost_n) {
    return malformed("counted " + std::to_string(r->lost.size()) +
                     " entries, header says " + std::to_string(lost_n));
  }
  return Status::Ok();
}

// Atomic like TrySaveRulesToFile: temp file + rename, so an interrupted
// train never leaves a torn recipe next to a valid rules file.
[[nodiscard]] Status TrySaveRecipe(const Recipe& r,
                                   const std::string& rules_path) {
  if (auto injected = util::FailpointFiresCode(util::kFpRecipeSave,
                                               StatusCode::kIoError)) {
    return util::InjectedFault(*injected, util::kFpRecipeSave)
        .WithContext("saving recipe for " + rules_path);
  }
  const std::string path = RecipePath(rules_path);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return util::IoError("cannot open temp file " + tmp);
    out << r.corpus << " " << r.columns << " " << r.centroids << " "
        << r.synthetic << " " << r.shards << "\n";
    if (!r.lost.empty()) out << FormatDegradedLine(r) << "\n";
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return util::IoError("write failure on temp file " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return util::IoError("cannot rename " + tmp + " over " + path);
  }
  return Status::Ok();
}

[[nodiscard]] Result<Recipe> TryLoadRecipe(const std::string& rules_path) {
  const std::string path = RecipePath(rules_path);
  if (auto injected = util::FailpointFiresCode(util::kFpRecipeLoad,
                                               StatusCode::kIoError)) {
    return util::InjectedFault(*injected, util::kFpRecipeLoad)
        .WithContext("loading recipe " + path);
  }
  std::ifstream in(path);
  if (!in) return util::NotFoundError("cannot open recipe " + path);
  std::string line;
  if (!std::getline(in, line)) {
    return util::DataLossError("recipe " + path + " is empty");
  }
  Recipe r;
  {
    std::istringstream first(line);
    if (!(first >> r.corpus >> r.columns >> r.centroids >> r.synthetic)) {
      return util::DataLossError(
          "recipe " + path +
          " is malformed (want: <corpus> <columns> <centroids> <synthetic> "
          "[shards])");
    }
    // The 5th field arrived with sharded generation; recipes written
    // before it trained on the monolithic (single-shard) corpus.
    if (!(first >> r.shards)) r.shards = 1;
  }
  if (std::getline(in, line) && !line.empty()) {
    AT_RETURN_IF_ERROR(ParseDegradedLine(line, "recipe " + path, &r));
  }
  AT_RETURN_IF_ERROR(ValidateRecipe(r, "recipe " + path));
  return r;
}

datagen::CorpusProfile ProfileFor(const Recipe& r) {
  if (r.corpus == "spreadsheet") {
    return datagen::SpreadsheetTablesProfile(r.columns);
  }
  if (r.corpus == "tablib") {
    return datagen::TablibProfile(r.columns);
  }
  return datagen::RelationalTablesProfile(r.columns);
}

/// Builds the training corpus shard-by-shard. When the recipe carries
/// degraded provenance, only the surviving shards are generated — all of
/// them required — so the rebuilt corpus is byte-identical to the one the
/// rules were trained on. Otherwise all shards are generated under
/// `quorum`, and `report` records any degradation for the caller to stamp.
/// Prints the shard report when anything noteworthy (retries or lost
/// shards) happened.
[[nodiscard]] Result<table::Corpus> TryBuildCorpus(
    const Recipe& r, const util::RetryPolicy& retry, double quorum,
    table::ShardLoadReport* report) {
  table::ShardLoadOptions options;
  options.retry = retry;
  options.min_shard_fraction = quorum;
  std::vector<size_t> include;
  if (!r.lost.empty()) {
    std::vector<bool> is_lost(r.shards, false);
    for (const LostShard& l : r.lost) is_lost[l.shard] = true;
    for (size_t s = 0; s < r.shards; ++s) {
      if (!is_lost[s]) include.push_back(s);
    }
    options.min_shard_fraction = 1.0;  // need exactly the survivors
    // The masked rebuild never attempts the provenance-lost shards, so
    // the loader cannot count them; surface the degradation here so a
    // `--metrics-dump` on a degraded check still reports shard.lost.
    metrics::Registry::Global()
        .GetCounter(metrics::kMShardLost)
        .Increment(r.lost.size());
    metrics::Registry::Global()
        .GetCounter(metrics::kMShardDegradedLoads)
        .Increment();
  }
  auto corpus = datagen::TryGenerateCorpusSharded(ProfileFor(r), r.shards,
                                                  options, report, include);
  if (report->degraded() || report->total_retries > 0) {
    std::fprintf(stderr, "%s\n", report->Summary().c_str());
  }
  if (!corpus.ok()) {
    return Status(corpus.status()).WithContext("building training corpus");
  }
  return corpus;
}

/// The evaluation-function options a recipe implies. Training and the
/// rebuild for deployment both read them, so the functions a rule file
/// names are the ones it was trained against.
typedet::EvalFunctionSetOptions EvalOptionsFor(const Recipe& r) {
  typedet::EvalFunctionSetOptions options;
  options.embedding_centroids_per_model = r.centroids;
  return options;
}

[[nodiscard]] Result<core::AutoTest> TryTrainOnCorpus(const Recipe& r,
                                                      table::Corpus corpus) {
  std::fprintf(stderr, "training on %s corpus (%zu columns, %zu shards)...\n",
               r.corpus.c_str(), corpus.size(), r.shards);
  core::AutoTestConfig config;
  config.eval_options = EvalOptionsFor(r);
  config.train_options.synthetic_count = r.synthetic;
  core::AutoTest at = core::AutoTest::Train(corpus, config);
  size_t skipped = at.model().evals_skipped;
  if (skipped > 0) {
    size_t total = at.evals().size();
    if (skipped == total) {
      return util::ResourceExhaustedError(
          "all " + std::to_string(total) +
          " evaluation families failed during training");
    }
    std::fprintf(stderr,
                 "warning: %zu/%zu evaluation families skipped under "
                 "injected faults; training degraded\n",
                 skipped, total);
  }
  return at;
}

/// Corpus build + train, honoring degraded provenance.
[[nodiscard]] Result<core::AutoTest> TryTrainFromRecipe(
    const Recipe& r, const util::RetryPolicy& retry, double quorum,
    table::ShardLoadReport* report) {
  AT_ASSIGN_OR_RETURN(table::Corpus corpus,
                      TryBuildCorpus(r, retry, quorum, report));
  return TryTrainOnCorpus(r, std::move(corpus));
}

/// The evaluation functions the rules in `rules_path` resolve against,
/// rebuilt from the rule file's recipe without training. A missing recipe
/// falls back to the default; a corrupt or unreadable one is a hard error
/// (it would rebuild the wrong functions and silently unresolve every
/// rule); degraded provenance rebuilds the same masked corpus.
[[nodiscard]] Result<typedet::EvalFunctionSet> TryBuildRuleEvals(
    const std::string& rules_path, const util::RetryPolicy& retry) {
  Recipe recipe;
  auto loaded = util::RetryCall(retry, util::RealClock(), /*stream=*/1003,
                                [&] { return TryLoadRecipe(rules_path); });
  if (loaded.ok()) {
    recipe = *loaded;
  } else if (loaded.status().code() != StatusCode::kNotFound) {
    return loaded.status();
  }
  if (!recipe.lost.empty()) {
    std::fprintf(stderr,
                 "note: rules were trained in degraded mode (%zu/%zu shards "
                 "lost); rebuilding that corpus\n",
                 recipe.lost.size(), recipe.shards);
  }
  table::ShardLoadReport report;
  AT_ASSIGN_OR_RETURN(table::Corpus corpus,
                      TryBuildCorpus(recipe, retry, /*quorum=*/1.0, &report));
  return typedet::EvalFunctionSet::Build(corpus, EvalOptionsFor(recipe));
}

// Exception-free size parse; the CLI must not terminate on `--columns xyz`.
bool ParseSize(const std::string& s, size_t* out) {
  if (s.empty()) return false;
  char* endp = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &endp, 10);
  if (endp != s.c_str() + s.size()) return false;
  *out = static_cast<size_t>(v);
  return true;
}

bool ParseFraction(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* endp = nullptr;
  double v = std::strtod(s.c_str(), &endp);
  if (endp != s.c_str() + s.size() || v < 0.0 || v > 1.0) return false;
  *out = v;
  return true;
}

int CmdTrain(int argc, char** argv) {
  Recipe recipe;
  std::string out_path = "rules.sdc";
  size_t max_retries = 3;
  double quorum = 1.0;
  for (int i = 0; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() { return std::string(i + 1 < argc ? argv[++i] : ""); };
    bool ok = true;
    if (a == "--corpus") recipe.corpus = next();
    else if (a == "--columns") ok = ParseSize(next(), &recipe.columns);
    else if (a == "--centroids") ok = ParseSize(next(), &recipe.centroids);
    else if (a == "--synthetic") ok = ParseSize(next(), &recipe.synthetic);
    else if (a == "--shards") ok = ParseSize(next(), &recipe.shards);
    else if (a == "--max-retries") ok = ParseSize(next(), &max_retries);
    else if (a == "--out") out_path = next();
    else if (a == "--shard-quorum") {
      if (!ParseFraction(next(), &quorum)) {
        std::fprintf(stderr,
                     "option --shard-quorum wants a fraction in [0, 1]\n");
        return kExitUsage;
      }
    } else {
      std::fprintf(stderr, "unknown train option %s\n", a.c_str());
      return kExitUsage;
    }
    if (!ok) {
      std::fprintf(stderr, "option %s wants a non-negative integer\n",
                   a.c_str());
      return kExitUsage;
    }
  }
  Status valid = ValidateRecipe(recipe, "command line");
  if (!valid.ok()) return Fail(valid);
  const util::RetryPolicy retry = CliRetryPolicy(max_retries);

  table::ShardLoadReport report;
  auto at = TryTrainFromRecipe(recipe, retry, quorum, &report);
  if (!at.ok()) return Fail(at.status());
  // Stamp which shards the model was actually trained without, so `check`
  // rebuilds this exact degraded corpus.
  for (const table::ShardOutcome& outcome : report.outcomes) {
    if (outcome.code != StatusCode::kOk) {
      recipe.lost.push_back(LostShard{outcome.shard, outcome.code});
    }
  }

  auto sel = at->Select(core::Variant::kFineSelect);
  std::vector<core::Sdc> rules;
  for (size_t i : sel.selected) rules.push_back(at->model().constraints[i]);
  Status saved = util::RetryCall(retry, util::RealClock(), /*stream=*/1001,
                                 [&] {
                                   return core::TrySaveRulesToFile(rules,
                                                                   out_path);
                                 });
  if (!saved.ok()) return Fail(saved);
  saved = util::RetryCall(retry, util::RealClock(), /*stream=*/1002,
                          [&] { return TrySaveRecipe(recipe, out_path); });
  if (!saved.ok()) return Fail(saved);
  if (!recipe.lost.empty()) {
    std::fprintf(stderr,
                 "warning: trained in degraded mode (%zu/%zu shards lost); "
                 "provenance recorded in %s\n",
                 recipe.lost.size(), recipe.shards,
                 RecipePath(out_path).c_str());
  }
  std::fprintf(g_report,
               "learned %zu constraints, distilled %zu rules -> %s\n",
               at->model().constraints.size(), rules.size(),
               out_path.c_str());
  return kExitOk;
}

// Checks one table against the predictor; returns the per-table status.
[[nodiscard]] Status CheckOneTable(const std::string& csv_path,
                                   const core::SdcPredictor& predictor,
                                   const util::RetryPolicy& retry,
                                   uint64_t stream, size_t* errors_found) {
  auto table = util::RetryCall(retry, util::RealClock(), stream, [&] {
    return table::TryReadCsvFile(csv_path);
  });
  if (!table.ok()) return table.status();

  std::fprintf(g_report, "checking %s with %zu rules\n", csv_path.c_str(),
               predictor.num_rules());
  size_t total = 0;
  size_t columns_skipped = 0;
  for (const auto& column : table->columns) {
    if (table::IsMostlyNumeric(column)) continue;
    // An empty budget gates nothing; TryPredict still honours the
    // predictor.column failpoint.
    auto prediction = predictor.TryPredict(column, core::PredictBudget{});
    if (!prediction.ok()) {
      // Column-level degradation: report, count, move on — one poisoned
      // column must not take down the whole table.
      std::fprintf(stderr, "warning: skipping column '%s': %s\n",
                   column.name.c_str(),
                   prediction.status().ToString().c_str());
      ++columns_skipped;
      continue;
    }
    for (const auto& d : prediction->detections) {
      ++total;
      std::fprintf(g_report, "%s:%zu  \"%s\"  conf=%.2f\n    %s\n",
                   column.name.c_str(), d.row + 2, d.value.c_str(),
                   d.confidence, d.explanation.c_str());
    }
  }
  if (columns_skipped > 0) {
    std::fprintf(stderr, "warning: %zu column(s) skipped under faults\n",
                 columns_skipped);
  }
  std::fprintf(g_report, "%s: %zu potential error(s) found\n",
               csv_path.c_str(), total);
  *errors_found += total;
  return Status::Ok();
}

int CmdCheck(int argc, char** argv) {
  std::vector<std::string> csv_paths;
  std::string rules_path;
  size_t max_retries = 3;
  for (int i = 0; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--rules" && i + 1 < argc) {
      rules_path = argv[++i];
    } else if (a == "--max-retries" && i + 1 < argc) {
      if (!ParseSize(argv[++i], &max_retries)) {
        std::fprintf(stderr,
                     "option --max-retries wants a non-negative integer\n");
        return kExitUsage;
      }
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown check option %s\n", a.c_str());
      return kExitUsage;
    } else {
      csv_paths.push_back(a);
    }
  }
  if (csv_paths.empty()) {
    std::fprintf(stderr,
                 "usage: autotest check <file.csv> [more.csv...] "
                 "[--rules f] [--max-retries n]\n");
    return kExitUsage;
  }
  const util::RetryPolicy retry = CliRetryPolicy(max_retries);

  // The rules point into evaluation functions one of these owns: the
  // functions rebuilt for a rule file, or a quick in-process model.
  std::optional<typedet::EvalFunctionSet> evals;
  std::optional<core::AutoTest> at;
  std::vector<core::Sdc> rules;
  if (!rules_path.empty()) {
    auto built = TryBuildRuleEvals(rules_path, retry);
    if (!built.ok()) return Fail(built.status());
    evals.emplace(std::move(*built));
    size_t unresolved = 0;
    auto loaded =
        util::RetryCall(retry, util::RealClock(), /*stream=*/1004, [&] {
          return core::TryLoadRulesFromFile(rules_path, *evals, &unresolved);
        });
    if (!loaded.ok()) return Fail(loaded.status());
    if (unresolved > 0) {
      std::fprintf(stderr, "warning: %zu rules reference unknown "
                   "evaluation functions and were skipped\n", unresolved);
    }
    rules = std::move(*loaded);
  } else {
    Recipe recipe;
    recipe.columns = 1500;  // quick in-process training
    table::ShardLoadReport report;
    auto trained = TryTrainFromRecipe(recipe, retry, /*quorum=*/1.0, &report);
    if (!trained.ok()) return Fail(trained.status());
    at.emplace(std::move(*trained));
    for (size_t i : at->Select(core::Variant::kFineSelect).selected) {
      rules.push_back(at->model().constraints[i]);
    }
  }
  core::SdcPredictor predictor(std::move(rules));
  if (predictor.skipped_rules() > 0) {
    std::fprintf(stderr,
                 "warning: %zu invalid/unresolved rules dropped by the "
                 "predictor\n",
                 predictor.skipped_rules());
  }

  // Per-table isolation: one unreadable table is reported as a structured
  // entry and the batch moves on, rather than aborting the run. The exit
  // code reflects the first failure.
  size_t errors_found = 0;
  size_t tables_failed = 0;
  int first_failure_exit = kExitOk;
  for (size_t t = 0; t < csv_paths.size(); ++t) {
    Status st = CheckOneTable(csv_paths[t], predictor, retry,
                              /*stream=*/2000 + t, &errors_found);
    if (!st.ok()) {
      std::fprintf(stderr, "error: table %s: %s\n", csv_paths[t].c_str(),
                   st.ToString().c_str());
      ++tables_failed;
      if (first_failure_exit == kExitOk) first_failure_exit = ExitCodeFor(st);
    }
  }
  if (csv_paths.size() > 1 || tables_failed > 0) {
    std::fprintf(g_report,
                 "checked %zu/%zu table(s), %zu failed, "
                 "%zu potential error(s) found\n",
                 csv_paths.size() - tables_failed, csv_paths.size(),
                 tables_failed, errors_found);
  }
  return first_failure_exit;
}

// ---------------------------------------------------------------------------
// The serving tier: `autotest serve` (daemon / --once) and `autotest
// query` (client). See DESIGN.md §4h for the wire and robustness
// contract.
// ---------------------------------------------------------------------------

// SIGTERM/SIGINT request a graceful drain; SIGHUP requests a rule reload.
// Handlers only touch lock-free flags.
volatile std::sig_atomic_t g_serve_stop = 0;
volatile std::sig_atomic_t g_serve_reload = 0;

void HandleStopSignal(int) { g_serve_stop = 1; }
void HandleReloadSignal(int) { g_serve_reload = 1; }

// mtime of `path`, or -1 when unreadable (for --reload-watch polling).
int64_t FileMtime(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<int64_t>(st.st_mtime);
}

int CmdServe(int argc, char** argv) {
  std::string rules_path;
  serve::ServeOptions options;
  size_t max_retries = 3;
  size_t port = 0;
  size_t max_inflight = 4;
  size_t queue_depth = 16;
  size_t default_deadline_ms = 10'000;
  size_t drain_timeout_ms = 5'000;
  std::string tenant_quotas_path;
  size_t max_request_bytes = uint64_t{64} << 20;
  size_t max_request_rows = 1'000'000;
  size_t max_request_cells = 8'000'000;
  size_t breaker_failures = 5;
  size_t breaker_cooldown_ms = 5'000;
  bool reload_watch = false;
  bool once = false;
  for (int i = 0; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() { return std::string(i + 1 < argc ? argv[++i] : ""); };
    bool ok = true;
    if (a == "--rules") rules_path = next();
    else if (a == "--port") ok = ParseSize(next(), &port);
    else if (a == "--max-inflight") ok = ParseSize(next(), &max_inflight);
    else if (a == "--queue-depth") ok = ParseSize(next(), &queue_depth);
    else if (a == "--default-deadline-ms")
      ok = ParseSize(next(), &default_deadline_ms);
    else if (a == "--drain-timeout-ms")
      ok = ParseSize(next(), &drain_timeout_ms);
    else if (a == "--max-retries") ok = ParseSize(next(), &max_retries);
    else if (a == "--tenant-quotas") tenant_quotas_path = next();
    else if (a == "--max-request-bytes")
      ok = ParseSize(next(), &max_request_bytes);
    else if (a == "--max-request-rows")
      ok = ParseSize(next(), &max_request_rows);
    else if (a == "--max-request-cells")
      ok = ParseSize(next(), &max_request_cells);
    else if (a == "--breaker-failures")
      ok = ParseSize(next(), &breaker_failures);
    else if (a == "--breaker-cooldown-ms")
      ok = ParseSize(next(), &breaker_cooldown_ms);
    else if (a == "--reload-watch") reload_watch = true;
    else if (a == "--once") once = true;
    else {
      std::fprintf(stderr, "unknown serve option %s\n", a.c_str());
      return kExitUsage;
    }
    if (!ok) {
      std::fprintf(stderr, "option %s wants a non-negative integer\n",
                   a.c_str());
      return kExitUsage;
    }
  }
  if (rules_path.empty()) {
    std::fprintf(stderr,
                 "usage: autotest serve --rules rules.sdc [--port N] "
                 "[--max-inflight K] [--queue-depth Q] "
                 "[--default-deadline-ms D] [--drain-timeout-ms T] "
                 "[--tenant-quotas file] [--max-request-bytes B] "
                 "[--max-request-rows R] [--max-request-cells C] "
                 "[--breaker-failures N] [--breaker-cooldown-ms D] "
                 "[--reload-watch] [--once]\n");
    return kExitUsage;
  }
  if (breaker_failures == 0) {
    std::fprintf(stderr, "option --breaker-failures must be positive\n");
    return kExitUsage;
  }
  if (port > 65535) {
    std::fprintf(stderr, "option --port wants a value in [0, 65535]\n");
    return kExitUsage;
  }
  if (max_inflight == 0 || queue_depth == 0) {
    std::fprintf(stderr,
                 "options --max-inflight and --queue-depth must be "
                 "positive\n");
    return kExitUsage;
  }
  if (default_deadline_ms > static_cast<size_t>(serve::kMaxDeadlineMs)) {
    std::fprintf(stderr,
                 "option --default-deadline-ms wants a value in [0, %lld]\n",
                 static_cast<long long>(serve::kMaxDeadlineMs));
    return kExitUsage;
  }
  options.port = static_cast<uint16_t>(port);
  options.max_inflight = max_inflight;
  options.queue_depth = queue_depth;
  options.default_deadline_micros =
      static_cast<int64_t>(default_deadline_ms) * 1000;
  options.drain_timeout_micros =
      static_cast<int64_t>(drain_timeout_ms) * 1000;
  options.max_request_bytes = max_request_bytes;
  options.max_request_rows = max_request_rows;
  options.max_request_cells = max_request_cells;

  // Per-tenant governance: the governor owns the token buckets and
  // circuit breakers and must outlive the server. A missing/malformed
  // quota file fails startup fast — a daemon silently serving without
  // its configured quotas is worse than one that refuses to start.
  util::CircuitBreakerOptions breaker_options;
  breaker_options.failure_threshold = static_cast<int>(breaker_failures);
  breaker_options.cooldown_micros =
      static_cast<int64_t>(breaker_cooldown_ms) * 1000;
  serve::TenantGovernor governor(breaker_options, &util::RealClock());
  if (!tenant_quotas_path.empty()) {
    Status quotas = governor.TryLoadQuotas(tenant_quotas_path);
    if (!quotas.ok()) return Fail(quotas);
    std::fprintf(stderr, "serve: tenant quotas loaded from %s\n",
                 tenant_quotas_path.c_str());
  }
  options.governor = &governor;

  // An impatient client that closes its socket before reading its
  // response must be an EPIPE on that one write, never a process-killing
  // SIGPIPE (belt to WriteExact's MSG_NOSIGNAL braces).
  std::signal(SIGPIPE, SIG_IGN);

  const util::RetryPolicy retry = CliRetryPolicy(max_retries);
  auto evals = TryBuildRuleEvals(rules_path, retry);
  if (!evals.ok()) return Fail(evals.status());

  serve::SnapshotStore store(&*evals, rules_path);
  Status loaded = util::RetryCall(retry, util::RealClock(), /*stream=*/1005,
                                  [&] { return store.TryReload(); });
  if (!loaded.ok()) {
    return Fail(Status(loaded).WithContext("loading the initial rule set"));
  }
  std::fprintf(stderr, "serve: rule set v%llu loaded from %s (%zu rules)\n",
               static_cast<unsigned long long>(store.version()),
               rules_path.c_str(), store.Get()->predictor().num_rules());

  if (once) {
    // Test mode: one unframed request payload on stdin, one response
    // payload on stdout, no sockets, no threads.
    std::ostringstream in;
    in << std::cin.rdbuf();
    serve::Response response = serve::HandlePayload(
        in.str(), store, options, /*admitted_micros=*/-1);
    std::string payload = serve::SerializeResponse(response);
    std::fwrite(payload.data(), 1, payload.size(), stdout);
    if (response.code == StatusCode::kOk) return kExitOk;
    return ExitCodeFor(Status(response.code, "request failed"));
  }

  serve::Server server(&store, options);
  Status started = server.Start();
  if (!started.ok()) return Fail(started);
  std::fprintf(stderr,
               "serve: listening on 127.0.0.1:%u (max-inflight=%zu "
               "queue-depth=%zu)\n",
               server.port(), max_inflight, queue_depth);
  std::fflush(stderr);

  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGHUP, HandleReloadSignal);

  int64_t last_mtime = FileMtime(rules_path);
  int64_t watch_countdown_micros = 0;
  while (g_serve_stop == 0 && !server.stop_requested()) {
    util::RealClock().SleepMicros(50'000);
    if (g_serve_reload != 0) {
      g_serve_reload = 0;
      Status st = store.TryReload();
      if (st.ok()) {
        std::fprintf(stderr, "serve: reloaded rule set -> v%llu\n",
                     static_cast<unsigned long long>(store.version()));
      } else {
        std::fprintf(stderr, "serve: reload failed, keeping v%llu: %s\n",
                     static_cast<unsigned long long>(store.version()),
                     st.ToString().c_str());
      }
      // Quotas ride the same reload trigger; a bad file keeps the old
      // table serving (load-validate-then-swap inside the governor).
      Status qst = governor.TryReloadQuotas();
      if (!qst.ok()) {
        std::fprintf(stderr,
                     "serve: quota reload failed, keeping old table: %s\n",
                     qst.ToString().c_str());
      }
    }
    if (reload_watch) {
      watch_countdown_micros -= 50'000;
      if (watch_countdown_micros <= 0) {
        watch_countdown_micros = 500'000;  // poll mtime twice a second
        int64_t mtime = FileMtime(rules_path);
        if (mtime != -1 && mtime != last_mtime) {
          last_mtime = mtime;
          g_serve_reload = 1;  // picked up on the next tick
        }
      }
    }
  }

  std::fprintf(stderr, "serve: draining...\n");
  serve::DrainReport report = server.StopAndDrain();
  std::fprintf(stderr,
               "serve: drained %s(completed=%llu shed=%llu "
               "drain-shed=%llu)\n",
               report.drained_clean ? "clean " : "",
               static_cast<unsigned long long>(report.completed),
               static_cast<unsigned long long>(report.shed),
               static_cast<unsigned long long>(report.drain_shed));
  return kExitOk;
}

int CmdQuery(int argc, char** argv) {
  std::string csv_path;
  std::string host = "127.0.0.1";
  std::string table_name;
  std::string tenant;
  std::string verb = "check";
  size_t port = 0;
  size_t deadline_ms = 0;
  size_t retries = 0;
  for (int i = 0; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() { return std::string(i + 1 < argc ? argv[++i] : ""); };
    bool ok = true;
    if (a == "--host") host = next();
    else if (a == "--port") ok = ParseSize(next(), &port);
    else if (a == "--deadline-ms") ok = ParseSize(next(), &deadline_ms);
    else if (a == "--table") table_name = next();
    else if (a == "--tenant") tenant = next();
    else if (a == "--retries") ok = ParseSize(next(), &retries);
    else if (a == "--ping") verb = "ping";
    else if (a == "--metrics") verb = "metrics";
    else if (a == "--reload") verb = "reload";
    else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown query option %s\n", a.c_str());
      return kExitUsage;
    } else {
      csv_path = a;
    }
    if (!ok) {
      std::fprintf(stderr, "option %s wants a non-negative integer\n",
                   a.c_str());
      return kExitUsage;
    }
  }
  if (port == 0 || port > 65535) {
    std::fprintf(stderr,
                 "usage: autotest query [file.csv] --port N [--host H] "
                 "[--deadline-ms D] [--table name] [--tenant T] "
                 "[--retries N] [--ping|--metrics|--reload]\n");
    return kExitUsage;
  }
  if (deadline_ms > static_cast<size_t>(serve::kMaxDeadlineMs)) {
    std::fprintf(stderr, "option --deadline-ms wants a value in [0, %lld]\n",
                 static_cast<long long>(serve::kMaxDeadlineMs));
    return kExitUsage;
  }
  if (!tenant.empty() && !serve::IsValidTenant(tenant)) {
    std::fprintf(stderr,
                 "option --tenant wants 1..%zu chars of [A-Za-z0-9_.-]\n",
                 serve::kMaxTenantBytes);
    return kExitUsage;
  }
  std::signal(SIGPIPE, SIG_IGN);  // a vanished server is an error, not a kill
  serve::Request request;
  request.verb = verb;
  request.deadline_ms = static_cast<int64_t>(deadline_ms);
  request.table = table_name;
  request.tenant = tenant;
  if (verb == "check") {
    if (csv_path.empty()) {
      std::fprintf(stderr, "query: a csv file is required for check\n");
      return kExitUsage;
    }
    std::ifstream in(csv_path, std::ios::binary);
    if (!in) {
      return Fail(util::NotFoundError("cannot open " + csv_path));
    }
    std::ostringstream body;
    body << in.rdbuf();
    request.body = body.str();
    if (request.table.empty()) request.table = csv_path;
  }

  // One round trip: connect, frame the request, read + parse the
  // response, print the report. Shed-class failures (exit 7 — server
  // unreachable, mid-frame I/O, or a RESOURCE_EXHAUSTED shed) are the
  // only retryable class below; everything else is final.
  auto attempt = [&]() -> int {
    auto fd = serve::TryConnect(host, static_cast<uint16_t>(port));
    if (!fd.ok()) {
      // "Server refused" is its own exit class: the caller's backoff loop
      // must distinguish an absent/saturated server from a broken request.
      std::fprintf(stderr, "error: %s\n", fd.status().ToString().c_str());
      return kExitShed;
    }
    Status sent = serve::TryWriteFrame(*fd, serve::SerializeRequest(request));
    if (!sent.ok()) {
      ::close(*fd);
      std::fprintf(stderr, "error: %s\n", sent.ToString().c_str());
      return kExitShed;
    }
    auto payload = serve::TryReadFrame(*fd, size_t{64} << 20);
    ::close(*fd);
    if (!payload.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   payload.status().ToString().c_str());
      return kExitShed;
    }
    auto response = serve::TryParseResponse(*payload);
    if (!response.ok()) return Fail(response.status());

    std::fprintf(stderr, "query: status=%s",
                 std::string(util::StatusCodeName(response->code)).c_str());
    for (const auto& [k, v] : response->fields) {
      std::fprintf(stderr, " %s=%s", k.c_str(), v.c_str());
    }
    std::fprintf(stderr, "\n");
    std::fwrite(response->body.data(), 1, response->body.size(), g_report);
    if (response->code == StatusCode::kOk) return kExitOk;
    if (response->code == StatusCode::kResourceExhausted) {
      // The reason field splits the RESOURCE_EXHAUSTED class into exit
      // codes with different retry semantics: quota (8) waits for a
      // bucket refill, budget (6) means the request itself is too big
      // and a retry can never help, everything else (shed, draining,
      // circuit_open -> 7) is transient server state worth backing off.
      const std::string_view reason = response->Field("reason");
      if (reason == "quota") {
        std::fprintf(stderr, "query: rejected by tenant quota\n");
        return kExitQuota;
      }
      if (reason == "budget") {
        std::fprintf(stderr, "query: request over its resource budget\n");
        return kExitResource;
      }
      std::fprintf(stderr, "query: request shed by the server\n");
      return kExitShed;
    }
    return ExitCodeFor(Status(response->code, "request failed"));
  };

  // --retries N re-sends only the shed class, with the same deterministic
  // jittered backoff schedule the library uses for transient I/O.
  const util::RetryPolicy policy = CliRetryPolicy(retries);
  int rc = attempt();
  for (size_t retry = 0; rc == kExitShed && retry < retries; ++retry) {
    const int64_t backoff = util::BackoffMicros(
        policy, /*stream=*/1006, static_cast<int>(retry) + 1);
    std::fprintf(stderr,
                 "query: shed, retry %zu/%zu in %lld us\n", retry + 1,
                 retries, static_cast<long long>(backoff));
    util::RealClock().SleepMicros(backoff);
    rc = attempt();
  }
  return rc;
}

int CmdRules(int argc, char** argv) {
  if (argc < 1) {
    std::fprintf(stderr, "usage: autotest rules <rules.sdc>\n");
    return kExitUsage;
  }
  std::string rules_path = argv[0];
  const util::RetryPolicy retry = CliRetryPolicy(3);
  auto evals = TryBuildRuleEvals(rules_path, retry);
  if (!evals.ok()) return Fail(evals.status());
  size_t unresolved = 0;
  auto rules = util::RetryCall(retry, util::RealClock(), /*stream=*/1004, [&] {
    return core::TryLoadRulesFromFile(rules_path, *evals, &unresolved);
  });
  if (!rules.ok()) return Fail(rules.status());
  for (const auto& r : *rules) {
    std::fprintf(g_report, "%s\n", r.Describe().c_str());
  }
  std::fprintf(g_report, "(%zu rules, %zu unresolved)\n", rules->size(),
               unresolved);
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the global flags before command dispatch.
  bool parallel_stats = false;
  std::string metrics_dump;  // "-" = stdout, else a file path
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--parallel-stats") == 0) {
      parallel_stats = true;
    } else if (std::strcmp(argv[i], "--failpoints") == 0 && i + 1 < argc) {
      autotest::util::Status st =
          autotest::util::FailpointRegistry::Global().Configure(argv[++i]);
      if (!st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        return kExitUsage;
      }
    } else if (std::strncmp(argv[i], "--metrics-dump=", 15) == 0) {
      metrics_dump = argv[i] + 15;
    } else if (std::strcmp(argv[i], "--metrics-dump") == 0 && i + 1 < argc) {
      metrics_dump = argv[++i];
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;
  if (metrics_dump == "-") {
    // Keep stdout machine-readable: human report lines move to stderr so
    // `autotest ... --metrics-dump=- | jq` just works.
    g_report = stderr;
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: autotest <train|check|rules|serve|query> "
                 "[options] [--parallel-stats] [--failpoints spec] "
                 "[--metrics-dump <path|->]\n"
                 "  train --corpus relational|spreadsheet|tablib "
                 "--columns N --shards N --shard-quorum F "
                 "--max-retries N --out rules.sdc\n"
                 "  check file.csv [more.csv...] [--rules rules.sdc] "
                 "[--max-retries N]\n"
                 "  rules rules.sdc\n"
                 "  serve --rules rules.sdc [--port N] [--max-inflight K] "
                 "[--queue-depth Q] [--default-deadline-ms D] "
                 "[--drain-timeout-ms T] [--tenant-quotas file] "
                 "[--max-request-bytes B] [--max-request-rows R] "
                 "[--max-request-cells C] [--breaker-failures N] "
                 "[--breaker-cooldown-ms D] [--reload-watch] [--once]\n"
                 "  query file.csv --port N [--host H] [--deadline-ms D] "
                 "[--tenant T] [--retries N] [--ping|--metrics|--reload]\n");
    return kExitUsage;
  }
  std::string cmd = argv[1];
  int rc;
  if (cmd == "train") rc = CmdTrain(argc - 2, argv + 2);
  else if (cmd == "check") rc = CmdCheck(argc - 2, argv + 2);
  else if (cmd == "rules") rc = CmdRules(argc - 2, argv + 2);
  else if (cmd == "serve") rc = CmdServe(argc - 2, argv + 2);
  else if (cmd == "query") rc = CmdQuery(argc - 2, argv + 2);
  else {
    std::fprintf(stderr, "unknown command %s\n", cmd.c_str());
    rc = kExitUsage;
  }
  if (parallel_stats) {
    std::fprintf(stderr, "%s\n",
                 autotest::util::parallel::FormatStats().c_str());
  }
  if (!metrics_dump.empty()) {
    // One JSON document per invocation, emitted even when the command
    // failed: a degraded or failing run is exactly the one whose counters
    // matter. A dump failure must not mask the command's own exit code,
    // but a clean run that cannot write its metrics becomes an I/O error.
    std::string json = autotest::metrics::Registry::Global().FormatJson(
        "autotest " + cmd);
    if (metrics_dump == "-") {
      std::fwrite(json.data(), 1, json.size(), stdout);
    } else {
      std::ofstream out(metrics_dump,
                        std::ios::binary | std::ios::trunc);
      out << json;
      if (!out.flush()) {
        std::fprintf(stderr, "error: cannot write metrics dump to %s\n",
                     metrics_dump.c_str());
        if (rc == kExitOk) rc = kExitIo;
      }
    }
  }
  return rc;
}
