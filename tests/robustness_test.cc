// Deterministic corruption harness for the load/serve path (ISSUE 2).
//
// Two attack surfaces take untrusted bytes: CSV tables (the online check
// stage) and serialized rule files (the offline/online hand-off). This
// suite byte-mutates and truncates both under a seeded RNG — 1,000
// mutations total — and asserts the pipeline always returns a structured
// Status diagnostic: no abort, no hang, no garbage rules served.
//
// It also proves every registered failpoint fires and is survived: each
// injected fault surfaces as an error (or a counted degradation for the
// trainer), never a crash.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "core/serialization.h"
#include "core/trainer.h"
#include "datagen/corpus_gen.h"
#include "table/csv.h"
#include "table/shard_loader.h"
#include "typedet/eval_functions.h"
#include "util/budget.h"
#include "util/circuit_breaker.h"
#include "util/failpoint.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/status.h"

namespace autotest::core {
namespace {

class RobustnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new table::Corpus(
        datagen::GenerateCorpus(datagen::TablibProfile(400, 5)));
    typedet::EvalFunctionSetOptions opt;
    opt.embedding_centroids_per_model = 30;
    evals_ = new typedet::EvalFunctionSet(
        typedet::EvalFunctionSet::Build(*corpus_, opt));
    TrainOptions topt;
    topt.synthetic_count = 200;
    model_ = new TrainedModel(TrainAutoTest(*corpus_, *evals_, topt));
  }

  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete evals_;
    evals_ = nullptr;
    delete corpus_;
    corpus_ = nullptr;
  }

  // Failpoint state is process-global: scrub it on both sides of every
  // test so a failing test can't leak armed failpoints (or counter state)
  // into its neighbors.
  void SetUp() override { util::FailpointRegistry::Global().Reset(); }
  void TearDown() override { util::FailpointRegistry::Global().Reset(); }

  static table::Corpus* corpus_;
  static typedet::EvalFunctionSet* evals_;
  static TrainedModel* model_;
};

table::Corpus* RobustnessTest::corpus_ = nullptr;
typedet::EvalFunctionSet* RobustnessTest::evals_ = nullptr;
TrainedModel* RobustnessTest::model_ = nullptr;

// Applies 1-4 random byte-level operations (flip, insert, delete,
// truncate) to `text`, deterministically in `rng`.
std::string Mutate(const std::string& text, util::Rng& rng) {
  std::string out = text;
  int ops = static_cast<int>(rng.UniformInt(1, 4));
  for (int k = 0; k < ops && !out.empty(); ++k) {
    size_t pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(out.size()) - 1));
    switch (rng.UniformInt(0, 3)) {
      case 0:  // flip to an arbitrary byte (NUL and \xff included)
        out[pos] = static_cast<char>(rng.UniformInt(0, 255));
        break;
      case 1:  // insert
        out.insert(pos, 1, static_cast<char>(rng.UniformInt(0, 255)));
        break;
      case 2:  // delete
        out.erase(pos, 1);
        break;
      case 3:  // truncate
        out.resize(pos);
        break;
    }
  }
  return out;
}

// The core invariant: whatever the bytes, the result is either a valid
// value or a structured diagnostic. Any crash/hang fails the whole binary.
void CheckRuleBytes(const std::string& bytes,
                    const typedet::EvalFunctionSet& evals) {
  size_t unresolved = 0;
  auto r = TryDeserializeRules(bytes, evals, &unresolved);
  if (r.ok()) {
    // Whatever loaded must be servable end-to-end: the predictor must
    // accept every surviving rule without dropping any (loader-level
    // validation is a superset of the predictor's serving checks).
    SdcPredictor predictor(std::move(r).value());
    EXPECT_EQ(predictor.skipped_rules(), 0u);
  } else {
    EXPECT_NE(r.status().code(), util::StatusCode::kOk);
    EXPECT_FALSE(r.status().message().empty());
  }
}

void CheckCsvBytes(const std::string& bytes) {
  table::CsvOptions opt;
  opt.max_field_bytes = 1 << 16;
  opt.max_row_bytes = 1 << 20;
  auto r = table::TryParseCsv(bytes, opt);
  if (!r.ok()) {
    EXPECT_NE(r.status().code(), util::StatusCode::kOk);
    EXPECT_FALSE(r.status().message().empty());
  }
}

TEST_F(RobustnessTest, FiveHundredCorruptRuleFilesNeverCrash) {
  ASSERT_FALSE(model_->constraints.empty());
  const std::string good = SerializeRules(model_->constraints);
  ASSERT_TRUE(TryDeserializeRules(good, *evals_).ok());
  size_t diagnostics = 0;
  for (uint64_t seed = 0; seed < 500; ++seed) {
    util::Rng rng(seed ^ 0xc0ffee);
    std::string bad = Mutate(good, rng);
    size_t unresolved = 0;
    auto r = TryDeserializeRules(bad, *evals_, &unresolved);
    if (!r.ok()) ++diagnostics;
    CheckRuleBytes(bad, *evals_);
  }
  // Most 1-4 byte corruptions of a rule file must be caught, not silently
  // absorbed (a benign mutation inside an escaped id or a float's low
  // digits can legitimately survive).
  EXPECT_GT(diagnostics, 250u);
}

TEST_F(RobustnessTest, FiveHundredCorruptCsvsNeverCrash) {
  // A representative CSV: quoting, embedded delimiters, CRLF.
  std::string good =
      "city,population,motto\r\n"
      "seattle,737015,\"the \"\"emerald\"\" city\"\r\n"
      "\"new york\",8336817,\"empire, state\"\r\n"
      "tokyo,13960000,sakura\r\n";
  for (size_t i = 0; i < 60; ++i) {
    good += "row" + std::to_string(i) + "," + std::to_string(i * 37) +
            ",value " + std::to_string(i) + "\n";
  }
  ASSERT_TRUE(table::TryParseCsv(good).ok());
  for (uint64_t seed = 0; seed < 500; ++seed) {
    util::Rng rng(seed ^ 0xbadf00d);
    CheckCsvBytes(Mutate(good, rng));
  }
}

TEST_F(RobustnessTest, EveryPrefixTruncationIsHandled) {
  const std::string good = SerializeRules(model_->constraints);
  // Every truncation point in the first lines plus a spread over the rest.
  for (size_t cut = 0; cut < good.size();
       cut += (cut < 256 ? 1 : good.size() / 97 + 1)) {
    CheckRuleBytes(good.substr(0, cut), *evals_);
  }
}

TEST_F(RobustnessTest, CorruptRulesNeverServeGarbage) {
  // Splice hostile rule lines into a valid file: every line that loads
  // must satisfy the predictor's serving invariants.
  const std::string hostile =
      "# autotest-sdc v1\n"
      "rule\tfun:unknown\tnan\t0.9\t0.8\t0.9\t0.01\t1\t2\t3\t4\t1\t0.01\n";
  auto r = TryDeserializeRules(hostile, *evals_);
  EXPECT_FALSE(r.ok());  // nan must be rejected at load time
  const std::string inverted =
      "# autotest-sdc v1\n"
      "rule\tfun:unknown\t0.9\t0.1\t0.8\t0.9\t0.01\t1\t2\t3\t4\t1\t0.01\n";
  EXPECT_FALSE(TryDeserializeRules(inverted, *evals_).ok());
}

TEST_F(RobustnessTest, PredictorDegradesOnUnservableRules) {
  // Rules that bypass the loader (constructed in-process) still can't
  // crash the serve path: they are dropped and counted.
  ASSERT_FALSE(model_->constraints.empty());
  std::vector<Sdc> rules = {model_->constraints.front()};
  Sdc null_eval = rules[0];
  null_eval.eval = nullptr;
  rules.push_back(null_eval);
  Sdc bad_radius = rules[0];
  bad_radius.d_in = 2.0;
  bad_radius.d_out = 1.0;
  rules.push_back(bad_radius);
  Sdc non_finite = rules[0];
  non_finite.m = std::nan("");
  rules.push_back(non_finite);

  SdcPredictor predictor(std::move(rules));
  EXPECT_EQ(predictor.num_rules(), 1u);
  EXPECT_EQ(predictor.skipped_rules(), 3u);

  table::Column col;
  col.name = "c";
  col.values = {"a", "b", "c", "d", "e"};
  auto detections = predictor.TryPredict(col, PredictBudget{});
  EXPECT_TRUE(detections.ok());
}

// --- failpoint coverage: every registered failpoint fires somewhere and
// the pipeline reports instead of crashing ---

TEST_F(RobustnessTest, CsvFailpointsSurfaceAsErrors) {
  auto& reg = util::FailpointRegistry::Global();
  const std::string path = "/tmp/autotest_robust_fp.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1,2\n";
  }

  ASSERT_TRUE(reg.Configure("csv.open=on").ok());
  auto r1 = table::TryReadCsvFile(path);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), util::StatusCode::kIoError);
  EXPECT_GE(reg.fires(util::kFpCsvOpen), 1u);
  reg.Disarm();

  ASSERT_TRUE(reg.Configure("csv.parse=on").ok());
  auto r2 = table::TryParseCsv("a\n1\n");
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), util::StatusCode::kDataLoss);
  EXPECT_GE(reg.fires(util::kFpCsvParse), 1u);
  reg.Disarm();

  // Disarmed again: the same inputs succeed.
  EXPECT_TRUE(table::TryReadCsvFile(path).ok());
  std::remove(path.c_str());
}

TEST_F(RobustnessTest, RuleFailpointsSurfaceAsErrors) {
  auto& reg = util::FailpointRegistry::Global();
  const std::string path = "/tmp/autotest_robust_fp.sdc";
  ASSERT_TRUE(TrySaveRulesToFile(model_->constraints, path).ok());

  ASSERT_TRUE(reg.Configure("rules.open=on").ok());
  ASSERT_FALSE(TryLoadRulesFromFile(path, *evals_).ok());
  EXPECT_GE(reg.fires(util::kFpRulesOpen), 1u);
  reg.Disarm();

  ASSERT_TRUE(reg.Configure("rules.parse=on").ok());
  ASSERT_FALSE(TryDeserializeRules("# autotest-sdc v1\n", *evals_).ok());
  EXPECT_GE(reg.fires(util::kFpRulesParse), 1u);
  reg.Disarm();

  ASSERT_TRUE(reg.Configure("rules.save=on").ok());
  ASSERT_FALSE(TrySaveRulesToFile(model_->constraints, path).ok());
  EXPECT_GE(reg.fires(util::kFpRulesSave), 1u);
  reg.Disarm();

  EXPECT_TRUE(TryLoadRulesFromFile(path, *evals_).ok());
  std::remove(path.c_str());
}

TEST_F(RobustnessTest, PredictorFailpointSurfacesAsError) {
  auto& reg = util::FailpointRegistry::Global();
  SdcPredictor predictor(model_->constraints);
  table::Column col;
  col.name = "dates";
  col.values = {"6/1/2022", "6/2/2022", "junk"};

  ASSERT_TRUE(reg.Configure("predictor.column=on").ok());
  auto r = predictor.TryPredict(col, PredictBudget{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_GE(reg.fires(util::kFpPredictorColumn), 1u);
  reg.Disarm();
  EXPECT_TRUE(predictor.TryPredict(col, PredictBudget{}).ok());
}

TEST_F(RobustnessTest, TrainerFailpointDegradesGracefully) {
  auto& reg = util::FailpointRegistry::Global();
  // Fire for every evaluation family: training must survive (no crash)
  // and report the degradation instead of fabricating constraints.
  ASSERT_TRUE(reg.Configure("trainer.eval=on").ok());
  TrainOptions topt;
  topt.synthetic_count = 50;
  TrainedModel degraded = TrainAutoTest(*corpus_, *evals_, topt);
  reg.Disarm();
  EXPECT_EQ(degraded.evals_skipped, evals_->size());
  EXPECT_TRUE(degraded.constraints.empty());
  EXPECT_GE(reg.fires(util::kFpTrainerEval), evals_->size());
}

TEST_F(RobustnessTest, RecipeFailpointsAreRegistered) {
  // recipe.load / recipe.save sit in the CLI layer (tools/autotest_cli);
  // here we verify they are armable and deterministic so the CLI soak can
  // rely on them.
  auto& reg = util::FailpointRegistry::Global();
  ASSERT_TRUE(reg.Configure("recipe.load=on,recipe.save=on").ok());
  EXPECT_TRUE(util::FailpointFires(util::kFpRecipeLoad));
  EXPECT_TRUE(util::FailpointFires(util::kFpRecipeSave));
  EXPECT_GE(reg.fires(util::kFpRecipeLoad), 1u);
  EXPECT_GE(reg.fires(util::kFpRecipeSave), 1u);
}

TEST_F(RobustnessTest, ServeFailpointsAreRegistered) {
  // serve.accept / serve.read / serve.reload sit in the serving tier
  // (src/serve, exercised end to end by serve_test and the serve soak);
  // here we verify they are armable and deterministic so those harnesses
  // can rely on them.
  auto& reg = util::FailpointRegistry::Global();
  ASSERT_TRUE(
      reg.Configure("serve.accept=on,serve.read=on,serve.reload=on").ok());
  EXPECT_TRUE(util::FailpointFires(util::kFpServeAccept));
  EXPECT_TRUE(util::FailpointFires(util::kFpServeRead));
  EXPECT_TRUE(util::FailpointFires(util::kFpServeReload));
  EXPECT_GE(reg.fires(util::kFpServeAccept), 1u);
  EXPECT_GE(reg.fires(util::kFpServeRead), 1u);
  EXPECT_GE(reg.fires(util::kFpServeReload), 1u);
}

TEST_F(RobustnessTest, ShardReadFailpointIsMaskedByRetry) {
  // shard.read fires on first attempts only; with shard.retry disarmed the
  // retry layer masks the transient fault and the load still succeeds.
  auto& reg = util::FailpointRegistry::Global();
  ASSERT_TRUE(reg.Configure("shard.read=on").ok());
  util::VirtualClock clock;
  table::ShardLoadOptions opt;
  opt.clock = &clock;
  opt.retry.max_attempts = 2;
  std::function<util::Result<int>(size_t)> load =
      [](size_t shard) -> util::Result<int> {
    return static_cast<int>(shard);
  };
  table::ShardLoadReport report;
  auto r = table::LoadShards<int>(4, load, opt, &report);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 4u);
  EXPECT_EQ(report.total_retries, 4u);  // one retry per shard
  EXPECT_GE(reg.fires(util::kFpShardRead), 4u);
  EXPECT_GT(clock.slept_micros(), 0);  // backoff happened, in virtual time
}

TEST_F(RobustnessTest, ShardRetryFailpointExhaustsTheBudget) {
  // Both shard failpoints armed: every attempt fails, the quorum is
  // missed, and the failure is a structured status naming each shard.
  auto& reg = util::FailpointRegistry::Global();
  ASSERT_TRUE(reg.Configure("shard.read=on,shard.retry=on").ok());
  util::VirtualClock clock;
  table::ShardLoadOptions opt;
  opt.clock = &clock;
  opt.retry.max_attempts = 3;
  std::function<util::Result<int>(size_t)> load =
      [](size_t) -> util::Result<int> { return 1; };
  table::ShardLoadReport report;
  auto r = table::LoadShards<int>(2, load, opt, &report);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kIoError);
  EXPECT_NE(r.status().message().find("quorum"), std::string::npos);
  EXPECT_EQ(report.num_failed, 2u);
  EXPECT_GE(reg.fires(util::kFpShardRead), 2u);
  EXPECT_GE(reg.fires(util::kFpShardRetry), 4u);  // 2 retries x 2 shards
  for (const table::ShardOutcome& outcome : report.outcomes) {
    EXPECT_EQ(outcome.attempts, 3u);
  }
}

TEST_F(RobustnessTest, CodeFlavorOverridesTheSiteDefault) {
  // code=dataloss turns a (default transient) shard fault permanent: the
  // retry layer must fail fast instead of burning its budget.
  auto& reg = util::FailpointRegistry::Global();
  ASSERT_TRUE(reg.Configure("shard.read=on,code=dataloss").ok());
  util::VirtualClock clock;
  table::ShardLoadOptions opt;
  opt.clock = &clock;
  opt.retry.max_attempts = 4;
  std::function<util::Result<int>(size_t)> load =
      [](size_t) -> util::Result<int> { return 1; };
  table::ShardLoadReport report;
  auto r = table::LoadShards<int>(2, load, opt, &report);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kDataLoss);
  for (const table::ShardOutcome& outcome : report.outcomes) {
    EXPECT_EQ(outcome.attempts, 1u);  // permanent: no retries
    EXPECT_EQ(outcome.code, util::StatusCode::kDataLoss);
  }
  EXPECT_EQ(clock.slept_micros(), 0);  // fail-fast never sleeps

  // code=default restores each site's documented code (transient again).
  ASSERT_TRUE(reg.Configure("code=default").ok());
  auto r2 = table::LoadShards<int>(2, load, opt, &report);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  for (const table::ShardOutcome& outcome : report.outcomes) {
    EXPECT_GT(outcome.attempts, 1u);  // transient: retry kicked in
  }
}

TEST_F(RobustnessTest, CodeFlavorAppliesAtSerialSitesToo) {
  auto& reg = util::FailpointRegistry::Global();
  ASSERT_TRUE(reg.Configure("csv.open=on,code=exhausted").ok());
  auto r = table::TryReadCsvFile("/nonexistent.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kResourceExhausted);

  ASSERT_TRUE(reg.Configure("code=io").ok());
  auto r2 = table::TryReadCsvFile("/nonexistent.csv");
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), util::StatusCode::kIoError);

  EXPECT_FALSE(reg.Configure("code=bogus").ok());
}

TEST_F(RobustnessTest, KeyedFailpointDecisionIsSchedulingIndependent) {
  // The keyed decision is a pure function of (seed, name, key): evaluating
  // the same keys in any order, any number of times, yields the same
  // fire/no-fire pattern.
  auto& reg = util::FailpointRegistry::Global();
  ASSERT_TRUE(reg.Configure("shard.read:p=0.5,seed=99").ok());
  std::vector<bool> first;
  for (uint64_t key = 0; key < 64; ++key) {
    first.push_back(util::FailpointFiresKeyed(util::kFpShardRead, key,
                                              util::StatusCode::kIoError)
                        .has_value());
  }
  for (uint64_t key = 64; key-- > 0;) {  // reverse order
    EXPECT_EQ(util::FailpointFiresKeyed(util::kFpShardRead, key,
                                        util::StatusCode::kIoError)
                  .has_value(),
              first[key])
        << "key " << key;
  }
  // Both outcomes occur at p=0.5 over 64 keys.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST_F(RobustnessTest, InjectedBudgetChargeRejectionIsSurvived) {
  // `budget.charge` makes any charge site report exhaustion: the charge
  // must surface as a structured kResourceExhausted, never a crash, and
  // disarming restores normal accounting.
  auto& reg = util::FailpointRegistry::Global();
  ASSERT_TRUE(reg.Configure("budget.charge=on").ok());
  util::ResourceBudget unlimited;
  util::Status injected =
      unlimited.TryCharge(util::ResourceKind::kBytes, 1, "soak charge");
  ASSERT_FALSE(injected.ok());
  EXPECT_EQ(injected.code(), util::StatusCode::kResourceExhausted);
  reg.Disarm();
  EXPECT_TRUE(
      unlimited.TryCharge(util::ResourceKind::kBytes, 1, "soak charge")
          .ok());
}

TEST_F(RobustnessTest, InjectedProbeDenialKeepsBreakerOpen) {
  // `breaker.probe` denies half-open probe admission and re-arms the
  // cooldown: the breaker stays open for as long as the fault is armed.
  util::VirtualClock clock;
  util::CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.cooldown_micros = 100;
  util::CircuitBreaker breaker(options, &clock);
  ASSERT_TRUE(breaker.TryAcquire());
  breaker.RecordFailure();

  auto& reg = util::FailpointRegistry::Global();
  ASSERT_TRUE(reg.Configure("breaker.probe=on").ok());
  clock.Advance(200);
  EXPECT_FALSE(breaker.TryAcquire());
  EXPECT_EQ(breaker.state(), util::CircuitBreaker::State::kOpen);
  reg.Disarm();
  clock.Advance(200);
  EXPECT_TRUE(breaker.TryAcquire());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), util::CircuitBreaker::State::kClosed);
}

TEST_F(RobustnessTest, AllRegisteredFailpointsCoveredByThisSuite) {
  // Meta-check: if a new failpoint is added to kAllFailpoints without a
  // firing test above, this list must be extended.
  const std::vector<std::string> covered = {
      "csv.open",    "csv.parse",  "rules.open",
      "rules.parse", "rules.save", "recipe.load",
      "recipe.save", "trainer.eval", "predictor.column",
      "shard.read",  "shard.retry", "serve.accept",
      "serve.read",  "serve.reload", "budget.charge",
      "breaker.probe",
  };
  ASSERT_EQ(covered.size(), std::size(util::kAllFailpoints));
  for (std::string_view fp : util::kAllFailpoints) {
    EXPECT_NE(std::find(covered.begin(), covered.end(), std::string(fp)),
              covered.end())
        << "failpoint " << fp << " has no firing test";
  }
}

TEST_F(RobustnessTest, FailpointSoakSurvivesRandomFaults) {
  // The CI soak in miniature: everything armed at p=0.05, the load path
  // exercised repeatedly. Any outcome is fine except a crash or a silent
  // wrong answer; errors must be structured.
  auto& reg = util::FailpointRegistry::Global();
  ASSERT_TRUE(reg.Configure("all:p=0.05,seed=1234").ok());
  const std::string good = SerializeRules(model_->constraints);
  const std::string csv = "a,b\nx,1\ny,2\n";
  size_t injected = 0;
  for (int i = 0; i < 200; ++i) {
    auto rules = TryDeserializeRules(good, *evals_);
    if (!rules.ok()) {
      ++injected;
      EXPECT_FALSE(rules.status().message().empty());
    }
    auto t = table::TryParseCsv(csv);
    if (!t.ok()) ++injected;
  }
  reg.Disarm();
  EXPECT_GT(injected, 0u);  // p=0.05 over 400 draws: fires w.p. ~1
}

// Exit-code contract for the serving client (DESIGN.md §4h, README exit
// codes): a query that the server refuses — or cannot even reach — exits
// 7, a class scripts can distinguish from bad input (2) and transient I/O
// (4) when deciding whether to retry with backoff.
TEST_F(RobustnessTest, QueryAgainstUnreachableServerExitsWithShedCode) {
  // Find a port that is currently free by binding an ephemeral one and
  // releasing it; the query then races nothing (no daemon is started).
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const uint16_t port = ntohs(addr.sin_port);
  ::close(probe);

  const std::string cmd = std::string(AT_AUTOTEST_CLI) +
                          " query --ping --port " + std::to_string(port) +
                          " >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 7);

  // --retries only re-sends the shed class; against a server that never
  // appears every attempt sheds, and the exhausted retry budget still
  // exits 7 (the class is unchanged, just attempted more than once).
  const std::string retried = std::string(AT_AUTOTEST_CLI) +
                              " query --ping --retries 2 --port " +
                              std::to_string(port) + " >/dev/null 2>&1";
  const int rc2 = std::system(retried.c_str());
  ASSERT_TRUE(WIFEXITED(rc2));
  EXPECT_EQ(WEXITSTATUS(rc2), 7);
}

// Death tests documenting the AT_CHECKs that remain programmer-error
// invariants on the training path: these guard API misuse, not input.
using RobustnessDeathTest = RobustnessTest;

TEST_F(RobustnessDeathTest, TrainOnEmptyCorpusAborts) {
  TrainOptions topt;
  EXPECT_DEATH(
      { TrainAutoTest(table::Corpus{}, *evals_, topt); }, "AT_CHECK");
}

TEST_F(RobustnessDeathTest, NonDescendingMGridAborts) {
  TrainOptions topt;
  topt.m_grid = {0.7, 0.9};  // must be strictly descending
  EXPECT_DEATH({ TrainAutoTest(*corpus_, *evals_, topt); },
               "m_grid must be strictly descending");
}

}  // namespace
}  // namespace autotest::core
