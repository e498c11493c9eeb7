#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <thread>

#include "core/auto_test.h"
#include "core/predictor.h"
#include "core/sdc.h"
#include "core/selection.h"
#include "core/serialization.h"
#include "core/threshold_bytes.h"
#include "core/trainer.h"
#include "datagen/corpus_gen.h"
#include "kernel_oracles.h"
#include "table/column_store.h"
#include "typedet/eval_functions.h"
#include "util/budget.h"
#include "util/metrics.h"
#include "util/row_cache.h"

namespace autotest::core {
namespace {

// A deterministic toy evaluation function: distance = |value| / 10, capped
// at 1. Short values are "in domain", long values are "out".
class LengthEval : public typedet::DomainEvalFunction {
 public:
  LengthEval() : DomainEvalFunction("test:length", typedet::Family::kCta) {}
  double Distance(std::string_view value) const override {
    return std::min(1.0, static_cast<double>(value.size()) / 10.0);
  }
  double min_distance() const override { return 0.0; }
  double max_distance() const override { return 1.0; }
  std::string Describe() const override { return "length/10"; }
};

TEST(ProfileTest, CountsAndPrecondition) {
  LengthEval eval;
  table::Column c;
  c.values = {"ab", "ab", "abcd", "abcdefghijkl"};
  ColumnDistanceProfile p = ComputeProfile(eval, table::Distinct(c));
  EXPECT_EQ(p.total_weight, 4u);
  EXPECT_EQ(p.CountWithin(0.2), 2u);   // "ab" x2 at distance 0.2
  EXPECT_EQ(p.CountWithin(0.4), 3u);   // plus "abcd" at 0.4
  EXPECT_EQ(p.CountBeyond(0.9), 1u);   // the 12-char value has distance 1.0
  EXPECT_TRUE(p.PreconditionHolds(0.4, 0.75));
  EXPECT_FALSE(p.PreconditionHolds(0.4, 0.8));
}

TEST(ProfileTest, EmptyColumn) {
  LengthEval eval;
  table::Column c;
  ColumnDistanceProfile p = ComputeProfile(eval, table::Distinct(c));
  EXPECT_EQ(p.total_weight, 0u);
  EXPECT_FALSE(p.PreconditionHolds(1.0, 0.0));
}

TEST(SdcTest, DescribeMentionsParameters) {
  LengthEval eval;
  Sdc sdc;
  sdc.eval = &eval;
  sdc.d_in = 0.2;
  sdc.d_out = 0.8;
  sdc.m = 0.9;
  sdc.confidence = 0.93;
  std::string text = sdc.Describe();
  EXPECT_NE(text.find("90%"), std::string::npos);
  EXPECT_NE(text.find("length/10"), std::string::npos);
  EXPECT_NE(text.find("0.93"), std::string::npos);
}

TEST(SyntheticCorpusTest, AlienValuesAreAlien) {
  auto corpus = datagen::GenerateCorpus(datagen::TablibProfile(200, 3));
  auto syn = BuildSyntheticCorpus(corpus, 300, 42);
  EXPECT_EQ(syn.size(), 300u);
  for (const auto& s : syn) {
    ASSERT_LT(s.base_column, corpus.size());
    // The alien value must not already occur in the base column.
    const auto& base = corpus[s.base_column];
    for (const auto& v : base.values) EXPECT_NE(v, s.error_value);
  }
}

TEST(SyntheticCorpusTest, IdenticalColumnsAbortInsteadOfSpinning) {
  // Regression: when every donor value is present in every base column no
  // alien value exists; the rejection loop used to spin forever. It must
  // now hit the attempt cap and abort with a diagnostic.
  table::Corpus corpus;
  table::Column c;
  c.name = "dup";
  c.values = {"a", "b", "c"};
  corpus.push_back(c);
  corpus.push_back(c);
  EXPECT_DEATH(BuildSyntheticCorpus(corpus, 4, 7),
               "alien donor values");
}

TEST(SyntheticCorpusTest, Deterministic) {
  auto corpus = datagen::GenerateCorpus(datagen::TablibProfile(100, 3));
  auto a = BuildSyntheticCorpus(corpus, 100, 7, 1);
  auto b = BuildSyntheticCorpus(corpus, 100, 7, 4);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].base_column, b[i].base_column);
    EXPECT_EQ(a[i].error_value, b[i].error_value);
  }
}

// The trainer folds a column's counts within each threshold from its
// values' bucket bytes. The per-value scan the bytes replaced,
// oracle::CountWithinThresholds over a function's d_ins and over its
// d_outs, must give the same counts: for distances exactly at a threshold
// and one ulp either side, NaN, infinities and negative distances, on the
// grids of several ranges (range 0 makes every threshold equal) and the
// binary grid, with counts above 1.
TEST(ThresholdByteTest, CountsMatchThresholdScan) {
  struct Grid {
    std::vector<double> d_ins;
    std::vector<double> d_outs;
  };
  std::vector<Grid> grids;
  for (double range : {1.0, 0.0, 0.37, 7.25}) {
    Grid g;
    for (double f : kDInFracs) g.d_ins.push_back(f * range);
    for (double f : kDOutFracs) g.d_outs.push_back(f * range);
    grids.push_back(g);
  }
  grids.push_back(Grid{{0.0}, {0.5}});
  const double inf = std::numeric_limits<double>::infinity();
  for (const Grid& g : grids) {
    std::vector<double> bounds = g.d_ins;
    bounds.insert(bounds.end(), g.d_outs.begin(), g.d_outs.end());
    std::vector<double> dist = {std::nan(""), inf, -inf, -1.0,
                                -0.0,         0.0, 1.0,  2.0};
    for (double t : bounds) {
      dist.push_back(t);
      dist.push_back(std::nextafter(t, -inf));
      dist.push_back(std::nextafter(t, inf));
    }
    std::vector<uint8_t> bytes(dist.size());
    for (size_t v = 0; v < dist.size(); ++v) {
      bytes[v] = ThresholdByte(bounds, dist[v]);
    }
    EXPECT_EQ(bytes[0], 0) << "NaN";

    // One column per value, then one column holding every value.
    std::vector<std::vector<uint32_t>> columns;
    for (uint32_t v = 0; v < dist.size(); ++v) columns.push_back({v});
    columns.emplace_back(dist.size());
    std::iota(columns.back().begin(), columns.back().end(), 0u);
    for (const std::vector<uint32_t>& ids : columns) {
      std::vector<uint32_t> counts(ids.size());
      for (size_t j = 0; j < ids.size(); ++j) counts[j] = 1 + ids[j] % 5;
      std::vector<uint64_t> within(bounds.size());
      std::vector<uint64_t> in(g.d_ins.size());
      std::vector<uint64_t> out(g.d_outs.size());
      CountWithinBytes(ids, counts, bytes.data(), bounds.size(),
                       within.data());
      oracle::CountWithinThresholds(ids, counts, dist, g.d_ins, in.data());
      oracle::CountWithinThresholds(ids, counts, dist, g.d_outs, out.data());
      SCOPED_TRACE("first distance " + std::to_string(dist[ids[0]]));
      for (size_t i = 0; i < in.size(); ++i) EXPECT_EQ(within[i], in[i]);
      for (size_t o = 0; o < out.size(); ++o) {
        EXPECT_EQ(within[in.size() + o], out[o]);
      }
    }
  }
}

// Digits-only values lie at distance 0, values holding a '?' at NaN, and
// every other value at 1.
class DigitsOrNanEval : public typedet::DomainEvalFunction {
 public:
  DigitsOrNanEval()
      : DomainEvalFunction("test:digits-or-nan", typedet::Family::kFunction) {}
  double Distance(std::string_view value) const override {
    if (value.find('?') != std::string_view::npos) return std::nan("");
    return std::all_of(value.begin(), value.end(),
                       [](unsigned char c) { return std::isdigit(c); })
               ? 0.0
               : 1.0;
  }
  double min_distance() const override { return 0.0; }
  double max_distance() const override { return 1.0; }
  std::string Describe() const override { return id(); }
};

// A NaN distance lies within every threshold when the trainer folds the
// corpus columns, and outside every threshold in the synthetic check,
// which compares the exact distance (NaN <= d_out is false). The corpus
// has number columns, number columns holding one '?' value, and word
// columns: the first two kinds are covered and never triggered, so the
// '?' values are within the inner ball, while a '?' error value added to
// a number column is detected exactly like a word.
TEST(TrainerNanTest, FoldCountsNanWithinAndSyntheticCheckOutside) {
  const size_t kNumbers = 30;
  const size_t kMixed = 15;
  const size_t kWords = 30;
  table::Corpus corpus;
  for (size_t c = 0; c < kNumbers + kMixed + kWords; ++c) {
    table::Column column;
    column.name = "c" + std::to_string(c);
    for (size_t k = 0; k < 10; ++k) {
      const size_t x = c * 10 + k;
      if (c < kNumbers + kMixed) {
        column.values.push_back(std::to_string(100000 + x));
      } else {
        std::string word = "w";
        for (size_t y = x; y > 0; y /= 26) word.push_back('a' + y % 26);
        column.values.push_back(word);
      }
    }
    if (c >= kNumbers && c < kNumbers + kMixed) {
      column.values.push_back("?" + std::to_string(c));
    }
    corpus.push_back(std::move(column));
  }
  typedet::EvalFunctionSetOptions none;
  none.include_cta = false;
  none.include_embedding = false;
  none.include_pattern = false;
  none.include_function = false;
  typedet::EvalFunctionSet evals =
      typedet::EvalFunctionSet::Build(corpus, none);
  evals.Add(std::make_unique<DigitsOrNanEval>());
  ASSERT_EQ(evals.size(), 1u);

  TrainOptions topt;
  topt.synthetic_count = 300;
  const std::vector<SyntheticColumn> synthetic = BuildSyntheticCorpus(
      corpus, topt.synthetic_count, topt.seed ^ 0x5f5f5f5fULL);
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    topt.num_threads = threads;
    const TrainedModel model = TrainAutoTest(corpus, evals, topt);
    ASSERT_FALSE(model.constraints.empty());
    size_t nan_detections = 0;
    for (size_t r = 0; r < model.constraints.size(); ++r) {
      const Sdc& rule = model.constraints[r];
      EXPECT_EQ(rule.contingency.covered_triggered, 0);
      EXPECT_EQ(rule.contingency.covered_not_triggered,
                static_cast<int64_t>(kNumbers + kMixed));
      EXPECT_EQ(rule.contingency.uncovered_triggered,
                static_cast<int64_t>(kWords));
      EXPECT_EQ(rule.contingency.uncovered_not_triggered, 0);
      // Every value of a number column, '?' included, lies within d_in, so
      // a word or '?' error value added to one is detected exactly when
      // the column's values still make up m of the enlarged column.
      std::vector<uint32_t> expected;
      for (uint32_t j = 0; j < synthetic.size(); ++j) {
        const size_t base = synthetic[j].base_column;
        const double d = evals.at(0).Distance(synthetic[j].error_value);
        if (d == 0.0 || base >= kNumbers + kMixed) continue;
        const double total = static_cast<double>(corpus[base].values.size());
        if (total >= rule.m * (total + 1.0) - 1e-9) expected.push_back(j);
      }
      EXPECT_EQ(model.detections[r], expected) << rule.m;
      for (uint32_t j : model.detections[r]) {
        if (synthetic[j].error_value[0] == '?') ++nan_detections;
      }
    }
    EXPECT_GT(nan_detections, 0u);
  }
}

// Shared small end-to-end fixture: training is expensive, do it once.
class TrainedFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new table::Corpus(
        datagen::GenerateCorpus(datagen::RelationalTablesProfile(1200, 11)));
    AutoTestConfig config;
    config.eval_options.embedding_centroids_per_model = 60;
    config.train_options.synthetic_count = 400;
    at_ = new AutoTest(AutoTest::Train(*corpus_, config));
  }
  static void TearDownTestSuite() {
    delete at_;
    at_ = nullptr;
    delete corpus_;
    corpus_ = nullptr;
  }
  static table::Corpus* corpus_;
  static AutoTest* at_;
};

table::Corpus* TrainedFixture::corpus_ = nullptr;
AutoTest* TrainedFixture::at_ = nullptr;

TEST_F(TrainedFixture, SurvivorsExistAndAreSane) {
  const TrainedModel& m = at_->model();
  EXPECT_GT(m.constraints.size(), 50u);
  EXPECT_GT(m.candidates_enumerated, 10000u);
  EXPECT_EQ(m.constraints.size(), m.detections.size());
  for (const auto& sdc : m.constraints) {
    EXPECT_GE(sdc.confidence, 0.8);
    EXPECT_LE(sdc.confidence, 1.0);
    EXPECT_GE(sdc.fpr, 0.0);
    EXPECT_LT(sdc.fpr, 0.5);
    EXPECT_GT(sdc.d_out, sdc.d_in);
    EXPECT_GE(sdc.m, 0.69);
    EXPECT_NE(sdc.eval, nullptr);
    EXPECT_GE(sdc.cohens_h, 0.8);
    EXPECT_LT(sdc.chi_squared_p, 0.05);
  }
}

TEST_F(TrainedFixture, AllFamiliesContribute) {
  std::set<typedet::Family> families;
  for (const auto& sdc : at_->model().constraints) {
    families.insert(sdc.eval->family());
  }
  EXPECT_TRUE(families.count(typedet::Family::kPattern));
  EXPECT_TRUE(families.count(typedet::Family::kFunction));
  EXPECT_TRUE(families.count(typedet::Family::kEmbedding));
  EXPECT_TRUE(families.count(typedet::Family::kCta));
}

TEST_F(TrainedFixture, PredictorDetectsPlantedErrors) {
  auto predictor = at_->MakePredictor(Variant::kAllConstraints);
  // A date column with a metadata placeholder (paper column C7).
  table::Column dates;
  dates.name = "date";
  for (int i = 1; i <= 25; ++i) {
    dates.values.push_back("3/" + std::to_string(i) + "/2021");
  }
  dates.values.push_back("new facility");
  auto detections = predictor.Predict(dates);
  bool found = false;
  for (const auto& d : detections) {
    if (d.value == "new facility") found = true;
    EXPECT_GT(d.confidence, 0.0);
    EXPECT_FALSE(d.explanation.empty());
  }
  EXPECT_TRUE(found);
  // No valid date should be flagged.
  for (const auto& d : detections) {
    EXPECT_EQ(d.value, "new facility") << d.value;
  }
}

TEST_F(TrainedFixture, PredictorDetectsIncompatibleInStateColumn) {
  auto predictor = at_->MakePredictor(Variant::kAllConstraints);
  table::Column states;
  states.name = "state";
  for (const char* s : {"fl", "az", "ca", "ok", "al", "ga", "tx", "ny",
                        "wa", "or", "il", "mi", "oh", "pa", "nc", "va",
                        "tn", "mo", "md", "ma"}) {
    states.values.push_back(s);
  }
  states.values.push_back("germany");  // paper column C2
  auto detections = predictor.Predict(states);
  bool found = false;
  for (const auto& d : detections) {
    if (d.value == "germany") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(TrainedFixture, PredictorSparesRareValidValues) {
  auto predictor = at_->MakePredictor(Variant::kAllConstraints);
  // The paper's Figure-3 trap: uncommon names are NOT errors.
  table::Column names;
  names.name = "first_name";
  for (const char* s : {"aaron", "vicky", "david", "angie", "bruce",
                        "james", "mary", "john", "linda", "sarah",
                        "karen", "kevin", "brian", "laura", "emma",
                        "peter", "helen", "anna", "grace", "ruth"}) {
    names.values.push_back(s);
  }
  names.values.push_back("omayra");  // rare but valid
  auto detections = predictor.Predict(names);
  for (const auto& d : detections) {
    EXPECT_NE(d.value, "omayra") << "rare valid value misflagged";
  }
}

TEST_F(TrainedFixture, SelectionRespectsIndices) {
  SelectionOptions opt;
  opt.size_budget = 50;
  opt.fpr_budget = 0.05;
  auto coarse = CoarseSelect(at_->model(), opt);
  ASSERT_EQ(coarse.lp_status, lp::SolveStatus::kOptimal);
  for (size_t i : coarse.selected) {
    EXPECT_LT(i, at_->model().constraints.size());
  }
  // Rounding is in expectation; allow generous slack over the budget.
  EXPECT_LE(coarse.selected.size(), 2 * opt.size_budget + 20);
}

TEST_F(TrainedFixture, FineSelectWithDeltaOneEqualsCoarse) {
  SelectionOptions opt;
  opt.size_budget = 60;
  opt.seed = 99;
  auto coarse = CoarseSelect(at_->model(), opt);
  opt.delta = 1.0;
  auto fine = FineSelect(at_->model(), opt);
  EXPECT_EQ(coarse.selected, fine.selected);
}

TEST_F(TrainedFixture, FineSelectKeepsQualityWithFewRules) {
  // Fine-Select with a tight budget should still detect the easy errors.
  SelectionOptions opt;
  opt.size_budget = 100;
  auto predictor = at_->MakePredictor(Variant::kFineSelect, &opt);
  EXPECT_GT(predictor.num_rules(), 0u);
  EXPECT_LE(predictor.num_rules(), 300u);

  table::Column dates;
  dates.name = "d";
  for (int i = 1; i <= 30; ++i) {
    dates.values.push_back("4/" + std::to_string(i % 28 + 1) + "/2019");
  }
  dates.values.push_back("n/a");
  bool found = false;
  for (const auto& d : predictor.Predict(dates)) {
    if (d.value == "n/a") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(TrainedFixture, SelectionDeterministicInSeed) {
  SelectionOptions opt;
  opt.seed = 5;
  auto a = FineSelect(at_->model(), opt);
  auto b = FineSelect(at_->model(), opt);
  EXPECT_EQ(a.selected, b.selected);
}

TEST_F(TrainedFixture, VariantNames) {
  EXPECT_STREQ(VariantName(Variant::kAllConstraints), "all-constraints");
  EXPECT_STREQ(VariantName(Variant::kFineSelect), "fine-select");
}

TEST(RobustnessTest, RandomHashCandidatesAllRejected) {
  // Paper Section 6.5: adversarial random-hash SDCs must be filtered out
  // by the statistical tests.
  auto corpus = datagen::GenerateCorpus(datagen::TablibProfile(400, 21));
  typedet::EvalFunctionSetOptions eval_opt;
  eval_opt.include_cta = false;
  eval_opt.include_embedding = false;
  eval_opt.include_pattern = false;
  eval_opt.include_function = false;
  eval_opt.num_random_hash = 100;
  auto evals = typedet::EvalFunctionSet::Build(corpus, eval_opt);
  TrainOptions topt;
  topt.synthetic_count = 100;
  // The paper's Appendix-B.1 worked example uses c_thres = 0.9.
  topt.min_confidence = 0.9;
  auto model = TrainAutoTest(corpus, evals, topt);
  EXPECT_EQ(model.constraints.size(), 0u);
}

TEST(TrainerTest, PruningOnlySkipsHopelessCandidates) {
  // With and without the Appendix-B.1 bound, the surviving set must be
  // identical (the bound is a pure optimization).
  auto corpus = datagen::GenerateCorpus(datagen::TablibProfile(250, 31));
  typedet::EvalFunctionSetOptions eval_opt;
  eval_opt.include_cta = false;
  eval_opt.include_embedding = false;
  auto evals = typedet::EvalFunctionSet::Build(corpus, eval_opt);
  TrainOptions with;
  with.synthetic_count = 100;
  with.enable_pruning = true;
  TrainOptions without = with;
  without.enable_pruning = false;
  auto a = TrainAutoTest(corpus, evals, with);
  auto b = TrainAutoTest(corpus, evals, without);
  EXPECT_GT(a.candidates_pruned, 0u);
  EXPECT_EQ(b.candidates_pruned, 0u);
  ASSERT_EQ(a.constraints.size(), b.constraints.size());
  for (size_t i = 0; i < a.constraints.size(); ++i) {
    EXPECT_EQ(a.constraints[i].eval_index, b.constraints[i].eval_index);
    EXPECT_DOUBLE_EQ(a.constraints[i].confidence,
                     b.constraints[i].confidence);
  }
}

// A test-only shared backend. A value's row holds the shares of its digit,
// letter and other characters; every row computation is counted.
struct CountingBackend {
  static constexpr size_t kWidth = 3;

  static void Row(std::string_view value, float* row) {
    size_t counts[kWidth] = {0, 0, 0};
    for (unsigned char ch : value) {
      ++counts[std::isdigit(ch) ? 0 : std::isalpha(ch) ? 1 : 2];
    }
    for (size_t c = 0; c < kWidth; ++c) {
      row[c] = value.empty() ? 0.0f
                             : static_cast<float>(counts[c]) /
                                   static_cast<float>(value.size());
    }
  }

  std::atomic<size_t> row_calls{0};
};

// Reads one column of a CountingBackend's rows as its distance. With
// `shared` false it reports no backend, so callers score it value by
// value through Distance instead.
class CountingEval : public typedet::DomainEvalFunction {
 public:
  CountingEval(std::string id, CountingBackend* backend, size_t column,
               bool shared)
      : DomainEvalFunction(std::move(id), typedet::Family::kFunction),
        backend_(backend),
        column_(column),
        shared_(shared) {}

  double Distance(std::string_view value) const override {
    float row[CountingBackend::kWidth];
    CountingBackend::Row(value, row);
    return static_cast<double>(row[column_]);
  }
  const void* backend() const override {
    return shared_ ? backend_ : nullptr;
  }
  void ComputeBackendRows(std::span<const std::string_view> values,
                          typedet::BackendRows* rows,
                          util::MemoWrite /*write*/) const override {
    backend_->row_calls.fetch_add(1, std::memory_order_relaxed);
    rows->width = CountingBackend::kWidth;
    rows->data.resize(values.size() * rows->width);
    rows->ok.assign(values.size(), 1);
    for (size_t i = 0; i < values.size(); ++i) {
      CountingBackend::Row(values[i], rows->data.data() + i * rows->width);
    }
  }
  void DistanceFromRows(const typedet::BackendRows& rows,
                        std::span<double> out) const override {
    for (size_t i = 0; i < rows.size(); ++i) {
      out[i] = static_cast<double>(rows.row(i)[column_]);
    }
  }
  double min_distance() const override { return 0.0; }
  double max_distance() const override { return 1.0; }
  std::string Describe() const override { return id(); }

 private:
  CountingBackend* backend_;
  size_t column_;
  bool shared_;
};

// The explicit row pass (DESIGN.md §4k) computes each backend's rows once
// per block: ceil(pool / 256) calls per backend in training at any thread
// count. Prediction computes rows only for values its plan's memo lacks:
// one call per backend per column with at least one such value, and none
// on a second pass over the same columns. The rules trained that way
// serialize byte-identically to rules trained from the same functions
// without a backend.
TEST(BackendRowsTest, EachBackendComputesEachBlockExactlyOnce) {
  auto corpus =
      datagen::GenerateCorpus(datagen::RelationalTablesProfile(150, 5));
  const size_t blocks =
      (table::ColumnStore::FromCorpus(corpus).pool_size() + 255) / 256;
  ASSERT_GT(blocks, 1u);

  CountingBackend backends[2];
  auto make_set = [&](bool shared) {
    typedet::EvalFunctionSetOptions opt;
    opt.include_cta = false;
    opt.include_embedding = false;
    opt.include_pattern = false;
    auto set = typedet::EvalFunctionSet::Build(corpus, opt);  // validators
    for (size_t b = 0; b < 2; ++b) {
      for (size_t c = 0; c < CountingBackend::kWidth; ++c) {
        set.Add(std::make_unique<CountingEval>(
            "test:backend" + std::to_string(b) + ":" + std::to_string(c),
            &backends[b], c, shared));
      }
    }
    return set;
  };
  const typedet::EvalFunctionSet shared = make_set(true);
  const typedet::EvalFunctionSet plain = make_set(false);

  TrainOptions topt;
  topt.synthetic_count = 200;
  const TrainedModel reference = TrainAutoTest(corpus, plain, topt);
  EXPECT_EQ(backends[0].row_calls.load() + backends[1].row_calls.load(), 0u);
  const std::string reference_rules = SerializeRules(reference.constraints);

  TrainedModel model;
  for (size_t threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (CountingBackend& b : backends) b.row_calls = 0;
    topt.num_threads = threads;
    model = TrainAutoTest(corpus, shared, topt);
    for (CountingBackend& b : backends) EXPECT_EQ(b.row_calls.load(), blocks);
    EXPECT_EQ(SerializeRules(model.constraints), reference_rules);
    EXPECT_EQ(model.detections, reference.detections);
  }

  // Both backends must have rules for the predictor leg to bind.
  for (const char* prefix : {"test:backend0:", "test:backend1:"}) {
    EXPECT_TRUE(std::any_of(
        model.constraints.begin(), model.constraints.end(),
        [&](const Sdc& r) { return r.eval->id().starts_with(prefix); }))
        << prefix;
  }
  SdcPredictor predictor(model.constraints);
  for (CountingBackend& b : backends) b.row_calls = 0;
  std::set<std::string> seen;
  size_t with_new_values = 0;
  for (size_t c = 0; c < 30; ++c) {
    predictor.Predict(corpus[c]);
    bool any_new = false;
    for (const std::string& v : corpus[c].values) {
      any_new = seen.insert(v).second || any_new;
    }
    if (any_new) ++with_new_values;
  }
  predictor.Predict(table::Column{});
  ASSERT_GT(with_new_values, 0u);
  for (CountingBackend& b : backends) {
    EXPECT_EQ(b.row_calls.load(), with_new_values);
  }
  for (CountingBackend& b : backends) b.row_calls = 0;
  for (size_t c = 0; c < 30; ++c) predictor.Predict(corpus[c]);
  for (CountingBackend& b : backends) EXPECT_EQ(b.row_calls.load(), 0u);
}

TEST(PredictorTest, EmptyColumnAndEmptyRules) {
  SdcPredictor empty({});
  table::Column c;
  c.values = {"a", "b"};
  EXPECT_TRUE(empty.Predict(c).empty());
  table::Column none;
  EXPECT_TRUE(empty.Predict(none).empty());
}

// ---------------------------------------------------------------------------
// The compiled plan against the loop it replaced (oracle::PredictByGroups).
// ---------------------------------------------------------------------------

uint64_t CounterValue(std::string_view name) {
  return metrics::Registry::Global().GetCounter(name).value();
}

// Every field the predictor reports, detection by detection.
void ExpectSamePrediction(const BudgetedPrediction& got,
                          const BudgetedPrediction& want) {
  EXPECT_EQ(got.expired, want.expired);
  EXPECT_EQ(got.groups_evaluated, want.groups_evaluated);
  EXPECT_EQ(got.groups_total, want.groups_total);
  ASSERT_EQ(got.detections.size(), want.detections.size());
  for (size_t i = 0; i < got.detections.size(); ++i) {
    const CellDetection& g = got.detections[i];
    const CellDetection& w = want.detections[i];
    EXPECT_EQ(g.row, w.row) << i;
    EXPECT_EQ(g.value, w.value) << i;
    EXPECT_EQ(g.confidence, w.confidence) << i;
    EXPECT_EQ(g.rule_index, w.rule_index) << i;
    EXPECT_EQ(g.explanation, w.explanation) << i;
  }
}

bool SamePrediction(const BudgetedPrediction& got,
                    const BudgetedPrediction& want) {
  if (got.expired != want.expired ||
      got.groups_evaluated != want.groups_evaluated ||
      got.groups_total != want.groups_total ||
      got.detections.size() != want.detections.size()) {
    return false;
  }
  for (size_t i = 0; i < got.detections.size(); ++i) {
    const CellDetection& g = got.detections[i];
    const CellDetection& w = want.detections[i];
    if (g.row != w.row || g.value != w.value ||
        g.confidence != w.confidence || g.rule_index != w.rule_index ||
        g.explanation != w.explanation) {
      return false;
    }
  }
  return true;
}

// Predict and an unbudgeted TryPredict both equal the oracle's loop.
void ExpectMatchesOracle(const SdcPredictor& predictor,
                         const table::Column& column) {
  SCOPED_TRACE("column '" + column.name + "'");
  const BudgetedPrediction want =
      oracle::PredictByGroups(predictor.rules(), column, nullptr, nullptr);
  BudgetedPrediction got;
  got.detections = predictor.Predict(column);
  got.groups_total = want.groups_total;
  got.groups_evaluated = want.groups_evaluated;
  ExpectSamePrediction(got, want);
  auto tried = predictor.TryPredict(column, PredictBudget{});
  ASSERT_TRUE(tried.ok()) << tried.status().ToString();
  ExpectSamePrediction(*tried, want);
}

// A clock whose reading is the number of earlier readings: a deadline of
// k lets exactly k rule groups through their gate.
class CountingClock final : public util::Clock {
 public:
  int64_t NowMicros() override {
    return now_.fetch_add(1, std::memory_order_relaxed);
  }
  void SleepMicros(int64_t /*micros*/) override {}

 private:
  std::atomic<int64_t> now_{0};
};

// Columns for the fixture's plan: corpus columns, columns with planted
// errors, and columns of values no model has seen.
std::vector<table::Column> PlanColumns(const table::Corpus& corpus) {
  std::vector<table::Column> columns(corpus.begin(),
                                     corpus.begin() + std::min<size_t>(
                                                          corpus.size(), 60));
  table::Column dates;
  dates.name = "date";
  for (int i = 1; i <= 25; ++i) {
    dates.values.push_back("3/" + std::to_string(i) + "/2021");
  }
  dates.values.push_back("new facility");
  columns.push_back(dates);
  table::Column states;
  states.name = "state";
  for (const char* v : {"fl", "az", "ca", "ok", "al", "ga", "tx", "ny", "wa",
                        "or", "il", "mi", "oh", "pa", "nc", "fl", "az"}) {
    states.values.push_back(v);
  }
  states.values.push_back("germany");
  columns.push_back(states);
  for (size_t c = 0; c < 6; ++c) {
    table::Column salted = corpus[c];
    salted.name += "~salted";
    for (std::string& v : salted.values) v += "~plan" + std::to_string(c);
    columns.push_back(std::move(salted));
  }
  return columns;
}

// The fixture's model must reach the plan's embedding runs: two or more
// groups on one embedding model.
TEST_F(TrainedFixture, PlanReadsSeveralFunctionsOfOneEmbeddingModel) {
  std::map<const void*, std::set<const typedet::DomainEvalFunction*>> evals;
  for (const Sdc& rule : at_->model().constraints) {
    if (rule.eval->family() == typedet::Family::kEmbedding) {
      evals[rule.eval->backend()].insert(rule.eval);
    }
  }
  size_t most = 0;
  for (const auto& [backend, set] : evals) most = std::max(most, set.size());
  EXPECT_GE(most, 2u);
}

TEST_F(TrainedFixture, PlanMatchesOracleColdThenWarm) {
  const SdcPredictor predictor(at_->model().constraints);
  const std::vector<table::Column> columns = PlanColumns(*corpus_);
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "cold" : "warm");
    const uint64_t misses0 = CounterValue(metrics::kMPredictorMemoMisses);
    for (const table::Column& column : columns) {
      ExpectMatchesOracle(predictor, column);
    }
    if (pass == 1) {
      EXPECT_EQ(CounterValue(metrics::kMPredictorMemoMisses), misses0);
    }
  }
}

TEST_F(TrainedFixture, PlanMatchesOracleAtEveryDeadline) {
  const table::Column column = PlanColumns(*corpus_)[60];  // dates
  const size_t n = table::Distinct(column).size();
  const SdcPredictor warm(at_->model().constraints);
  warm.Predict(column);
  const size_t groups =
      oracle::PredictByGroups(warm.rules(), column, nullptr, nullptr)
          .groups_total;
  ASSERT_GT(groups, 2u);
  for (size_t k = 0; k <= groups + 1; ++k) {
    SCOPED_TRACE("deadline after " + std::to_string(k) + " groups");
    CountingClock oracle_clock;
    const PredictBudget oracle_budget{
        .clock = &oracle_clock, .deadline_micros = static_cast<int64_t>(k)};
    const BudgetedPrediction want = oracle::PredictByGroups(
        warm.rules(), column, &oracle_budget, nullptr);
    EXPECT_EQ(want.expired, k < groups);

    CountingClock warm_clock;
    auto got = warm.TryPredict(
        column, PredictBudget{.clock = &warm_clock,
                              .deadline_micros = static_cast<int64_t>(k)});
    ASSERT_TRUE(got.ok());
    ExpectSamePrediction(*got, want);

    // Cold, a column cut short inserts nothing: the next full pass misses
    // every value again.
    const SdcPredictor cold(at_->model().constraints);
    CountingClock cold_clock;
    got = cold.TryPredict(
        column, PredictBudget{.clock = &cold_clock,
                              .deadline_micros = static_cast<int64_t>(k)});
    ASSERT_TRUE(got.ok());
    ExpectSamePrediction(*got, want);
    const uint64_t misses0 = CounterValue(metrics::kMPredictorMemoMisses);
    ExpectMatchesOracle(cold, column);
    EXPECT_EQ(CounterValue(metrics::kMPredictorMemoMisses) - misses0,
              k < groups ? n : 0);
  }
}

TEST_F(TrainedFixture, PlanMatchesOracleAtEveryRejectedCharge) {
  const table::Column column = PlanColumns(*corpus_)[61];  // states
  const uint64_t n = table::Distinct(column).size();
  ASSERT_GE(n, 2u);
  const SdcPredictor warm(at_->model().constraints);
  warm.Predict(column);
  const size_t groups =
      oracle::PredictByGroups(warm.rules(), column, nullptr, nullptr)
          .groups_total;
  // Charge k + 1 is the first one over max_cells = k * n + n - 1.
  auto limits = [&](size_t k) {
    return util::ResourceLimits{.max_cells = k * n + n - 1};
  };
  for (size_t k = 0; k <= groups; ++k) {
    SCOPED_TRACE("charge " + std::to_string(k + 1) + " rejected");
    util::ResourceBudget oracle_budget(limits(k));
    const auto want = oracle::TryPredictByGroups(
        warm.rules(), column, PredictBudget{.resources = &oracle_budget});
    EXPECT_EQ(want.ok(), k == groups);
    for (bool cold : {false, true}) {
      SCOPED_TRACE(cold ? "cold" : "warm");
      const SdcPredictor fresh(at_->model().constraints);
      const SdcPredictor& predictor = cold ? fresh : warm;
      util::ResourceBudget budget(limits(k));
      const auto got =
          predictor.TryPredict(column, PredictBudget{.resources = &budget});
      EXPECT_EQ(budget.charges(), oracle_budget.charges());
      EXPECT_EQ(budget.used(util::ResourceKind::kCells),
                oracle_budget.used(util::ResourceKind::kCells));
      ASSERT_EQ(got.ok(), want.ok());
      if (!want.ok()) {
        EXPECT_EQ(got.status().ToString(), want.status().ToString());
      } else {
        ExpectSamePrediction(*got, *want);
      }
      if (cold) {
        const uint64_t misses0 =
            CounterValue(metrics::kMPredictorMemoMisses);
        ExpectMatchesOracle(fresh, column);
        EXPECT_EQ(CounterValue(metrics::kMPredictorMemoMisses) - misses0,
                  k < groups ? n : 0);
      }
    }
  }
}

TEST_F(TrainedFixture, FourThreadsShareOnePredictor) {
  const SdcPredictor predictor(at_->model().constraints);
  const std::vector<table::Column> columns = PlanColumns(*corpus_);
  std::vector<BudgetedPrediction> want;
  for (const table::Column& column : columns) {
    want.push_back(oracle::PredictByGroups(predictor.rules(), column,
                                           nullptr, nullptr));
  }
  constexpr size_t kThreads = 4;
  std::vector<size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t pass = 0; pass < 2; ++pass) {
        for (size_t k = 0; k < columns.size(); ++k) {
          const size_t c = (k + t * columns.size() / kThreads) %
                           columns.size();
          auto got = predictor.TryPredict(columns[c], PredictBudget{});
          if (!got.ok() || !SamePrediction(*got, want[c])) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0u) << t;
}

// Serving reads the shared models' memos and writes none of them.
TEST_F(TrainedFixture, PredictingFreshValuesLeavesModelMemosAlone) {
  const metrics::Gauge& bytes =
      metrics::Registry::Global().GetGauge(metrics::kMRowCacheBytes);
  const SdcPredictor predictor(at_->model().constraints);
  std::vector<table::Column> columns;
  for (size_t c = 0; c < 20; ++c) {
    table::Column salted = (*corpus_)[c];
    for (std::string& v : salted.values) v += "~fresh" + std::to_string(c);
    columns.push_back(std::move(salted));
  }
  const double bytes0 = bytes.value();
  const uint64_t row_misses0 = CounterValue(metrics::kMRowCacheMisses);
  for (const table::Column& column : columns) predictor.Predict(column);
  EXPECT_GT(CounterValue(metrics::kMRowCacheMisses), row_misses0);
  EXPECT_EQ(bytes.value(), bytes0);
  // The values are in the plan's memo instead.
  const uint64_t hits0 = CounterValue(metrics::kMPredictorMemoHits);
  for (const table::Column& column : columns) predictor.Predict(column);
  size_t distinct = 0;
  for (const table::Column& column : columns) {
    distinct += table::Distinct(column).size();
  }
  EXPECT_EQ(CounterValue(metrics::kMPredictorMemoHits) - hits0, distinct);
}

TEST_F(TrainedFixture, RepeatPassAddsDistinctCountToMemoHits) {
  const SdcPredictor predictor(at_->model().constraints);
  const table::Column& column = (*corpus_)[3];
  const uint64_t n = table::Distinct(column).size();
  const uint64_t misses0 = CounterValue(metrics::kMPredictorMemoMisses);
  predictor.Predict(column);
  EXPECT_EQ(CounterValue(metrics::kMPredictorMemoMisses) - misses0, n);
  const uint64_t hits0 = CounterValue(metrics::kMPredictorMemoHits);
  const uint64_t misses1 = CounterValue(metrics::kMPredictorMemoMisses);
  predictor.Predict(column);
  EXPECT_EQ(CounterValue(metrics::kMPredictorMemoHits) - hits0, n);
  EXPECT_EQ(CounterValue(metrics::kMPredictorMemoMisses), misses1);
}

// A test function whose distance is NaN for some values: length / 8 (so
// lengths 2 and 4 land exactly on the d_ins 0.25 and 0.5), NaN for a value
// containing '?'; or the share of digits, NaN for a value containing '#'.
// With `shared` it computes both through one backend's rows.
class NanEval : public typedet::DomainEvalFunction {
 public:
  static constexpr size_t kWidth = 2;

  NanEval(std::string id, const int* backend, size_t column, bool shared,
          typedet::Family family = typedet::Family::kFunction)
      : DomainEvalFunction(std::move(id), family),
        backend_(shared ? backend : nullptr),
        column_(column) {}

  static void Row(std::string_view value, float* row) {
    const float nan = std::numeric_limits<float>::quiet_NaN();
    size_t digits = 0;
    for (unsigned char ch : value) digits += std::isdigit(ch) ? 1 : 0;
    row[0] = value.find('?') != std::string_view::npos
                 ? nan
                 : std::min(1.0f, static_cast<float>(value.size()) / 8.0f);
    row[1] = value.find('#') != std::string_view::npos ? nan
             : value.empty()                           ? 0.0f
                                                       : static_cast<float>(
                                                             digits) /
                                   static_cast<float>(value.size());
  }

  double Distance(std::string_view value) const override {
    float row[kWidth];
    Row(value, row);
    return static_cast<double>(row[column_]);
  }
  const void* backend() const override { return backend_; }
  void ComputeBackendRows(std::span<const std::string_view> values,
                          typedet::BackendRows* rows,
                          util::MemoWrite /*write*/) const override {
    rows->width = kWidth;
    rows->data.resize(values.size() * kWidth);
    rows->ok.assign(values.size(), 1);
    for (size_t i = 0; i < values.size(); ++i) {
      Row(values[i], rows->data.data() + i * kWidth);
    }
  }
  void DistanceFromRows(const typedet::BackendRows& rows,
                        std::span<double> out) const override {
    for (size_t i = 0; i < rows.size(); ++i) {
      out[i] = static_cast<double>(rows.row(i)[column_]);
    }
  }
  double min_distance() const override { return 0.0; }
  double max_distance() const override { return 1.0; }
  std::string Describe() const override { return id(); }

 private:
  const void* backend_;
  size_t column_;
};

Sdc MakeRule(const typedet::DomainEvalFunction* eval, double d_in,
             double d_out, double m, double confidence) {
  Sdc rule;
  rule.eval = eval;
  rule.d_in = d_in;
  rule.d_out = d_out;
  rule.m = m;
  rule.confidence = confidence;
  return rule;
}

table::Column MakeColumn(std::string name, std::vector<std::string> values) {
  table::Column column;
  column.name = std::move(name);
  column.values = std::move(values);
  return column;
}

// Rules sharing (d_in, m) pairs, d_ins and confidences on functions with
// NaN distances, a shared backend and none, against the oracle, cold and
// warm. The backend also serves an embedding-family function after
// functions of another family, whose group must score it itself.
TEST(PlanTest, NanDistancesAndSharedPreconditionsMatchOracle) {
  const int backend = 0;
  const NanEval length("test:nan:length", &backend, 0, /*shared=*/true);
  const NanEval digits("test:nan:digits", &backend, 1, /*shared=*/true);
  const NanEval plain("test:nan:plain", &backend, 0, /*shared=*/false);
  const NanEval embedded("test:nan:embedded", &backend, 1, /*shared=*/true,
                         typedet::Family::kEmbedding);
  const std::vector<Sdc> rules = {
      MakeRule(&length, 0.25, 0.5, 0.6, 0.9),
      MakeRule(&length, 0.25, 0.75, 0.6, 0.95),  // same (d_in, m)
      MakeRule(&length, 0.25, 0.5, 0.8, 0.9),    // same d_in, other m
      MakeRule(&digits, 0.0, 0.25, 0.5, 0.85),
      MakeRule(&plain, 0.25, 0.5, 0.6, 0.9),     // ties a length rule
      MakeRule(&length, 0.5, 0.5, 0.9, 0.99),    // d_in == d_out
      MakeRule(&digits, 0.0, 0.25, 0.5, 0.85),   // a duplicate
      MakeRule(&plain, 0.375, 0.875, 0.4, 0.7),
      MakeRule(&embedded, 0.0, 0.5, 0.3, 0.8),
  };
  const SdcPredictor predictor(rules);
  ASSERT_EQ(predictor.num_rules(), rules.size());
  const std::string huge((size_t{1} << 20) + 10, 'x');
  const std::vector<table::Column> columns = {
      MakeColumn("short", {"ab", "cd", "ab", "abcd", "abcdefghij", "ef"}),
      MakeColumn("nan", {"a?", "ab", "ab", "a?", "cd", "1#", "12345678"}),
      MakeColumn("all-nan", {"?", "a?", "?", "#?"}),
      MakeColumn("digits", {"12", "34", "56", "ab", "7#", "12", "9"}),
      MakeColumn("repeated", std::vector<std::string>(9, "ab")),
      MakeColumn("repeated-nan", std::vector<std::string>(5, "x?")),
      MakeColumn("empty-strings", {"", "", "ab"}),
      MakeColumn("empty", {}),
      MakeColumn("huge", {"ab", huge, "cd", "ab"}),
      MakeColumn("at-d-in", {"abcd", "abcd", "abcd", "abcd", "abcd", "abcd",
                             "abcd", "abcd", "abcd", "abcdefghijk"}),
  };
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "cold" : "warm");
    for (const table::Column& column : columns) {
      ExpectMatchesOracle(predictor, column);
    }
  }
  // The rules flag what lies beyond d_out, and a NaN distance is neither
  // within d_in nor beyond d_out.
  bool flagged_long = false;
  for (const CellDetection& d : predictor.Predict(columns[0])) {
    EXPECT_NE(d.value, "ab");
    if (d.value == "abcdefghij") flagged_long = true;
  }
  EXPECT_TRUE(flagged_long);
  for (const CellDetection& d : predictor.Predict(columns[1])) {
    EXPECT_NE(d.value, "a?");
  }
  // A distance equal to d_in is within it: nine of ten values sit at
  // exactly 0.5, so the m = 0.9 rule holds.
  const std::vector<CellDetection> at_d_in =
      predictor.Predict(columns.back());
  ASSERT_EQ(at_d_in.size(), 1u);
  EXPECT_EQ(at_d_in[0].confidence, 0.99);
}

// An empty column is checked without work; a column of one repeated value
// is one distinct value, scored once and memoized once.
TEST(PlanTest, EmptyAndRepeatedColumns) {
  const int backend = 0;
  const NanEval length("test:nan:length", &backend, 0, /*shared=*/true);
  const SdcPredictor predictor({MakeRule(&length, 0.25, 0.5, 0.5, 0.9)});
  const uint64_t hits0 = CounterValue(metrics::kMPredictorMemoHits);
  const uint64_t misses0 = CounterValue(metrics::kMPredictorMemoMisses);
  util::ResourceBudget budget;
  auto empty = predictor.TryPredict(MakeColumn("empty", {}),
                                    PredictBudget{.resources = &budget});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->detections.empty());
  EXPECT_EQ(empty->groups_evaluated, 0u);
  EXPECT_EQ(empty->groups_total, 1u);
  EXPECT_EQ(budget.charges(), 0u);
  EXPECT_EQ(CounterValue(metrics::kMPredictorMemoMisses), misses0);

  const table::Column repeated =
      MakeColumn("repeated", std::vector<std::string>(7, "abcdefg"));
  for (int pass = 0; pass < 2; ++pass) {
    ExpectMatchesOracle(predictor, repeated);
  }
  // ExpectMatchesOracle predicts twice per pass: one miss, then hits.
  EXPECT_EQ(CounterValue(metrics::kMPredictorMemoMisses) - misses0, 1u);
  EXPECT_EQ(CounterValue(metrics::kMPredictorMemoHits) - hits0, 3u);
}

// A value whose record would outgrow one memo chunk (over 1 MiB) is scored
// on every pass and never memoized.
TEST(PlanTest, ValueOverOneMebibyteIsNeverMemoized) {
  const int backend = 0;
  const NanEval length("test:nan:length", &backend, 0, /*shared=*/true);
  const SdcPredictor predictor({MakeRule(&length, 0.25, 0.5, 0.5, 0.9)});
  const table::Column column = MakeColumn(
      "huge", {"ab", std::string((size_t{1} << 20) + 1, 'y'), "cd", "ab"});
  const uint64_t misses0 = CounterValue(metrics::kMPredictorMemoMisses);
  ExpectMatchesOracle(predictor, column);
  EXPECT_EQ(CounterValue(metrics::kMPredictorMemoMisses) - misses0, 3u + 1u);
  const uint64_t misses1 = CounterValue(metrics::kMPredictorMemoMisses);
  ExpectMatchesOracle(predictor, column);
  EXPECT_EQ(CounterValue(metrics::kMPredictorMemoMisses) - misses1, 2u);
  const std::vector<CellDetection> detections = predictor.Predict(column);
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_EQ(detections[0].row, 1u);
}

}  // namespace
}  // namespace autotest::core
