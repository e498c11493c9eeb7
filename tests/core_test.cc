#include <gtest/gtest.h>

#include <set>

#include "core/auto_test.h"
#include "core/predictor.h"
#include "core/sdc.h"
#include "core/selection.h"
#include "core/trainer.h"
#include "datagen/corpus_gen.h"
#include "typedet/eval_functions.h"

namespace autotest::core {
namespace {

// A deterministic toy evaluation function: distance = |value| / 10, capped
// at 1. Short values are "in domain", long values are "out".
class LengthEval : public typedet::DomainEvalFunction {
 public:
  LengthEval() : DomainEvalFunction("test:length", typedet::Family::kCta) {}
  double Distance(const std::string& value) const override {
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
  auto a = BuildSyntheticCorpus(corpus, 100, 7);
  auto b = BuildSyntheticCorpus(corpus, 100, 7);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].base_column, b[i].base_column);
    EXPECT_EQ(a[i].error_value, b[i].error_value);
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

TEST(PredictorTest, EmptyColumnAndEmptyRules) {
  SdcPredictor empty({});
  table::Column c;
  c.values = {"a", "b"};
  EXPECT_TRUE(empty.Predict(c).empty());
  table::Column none;
  EXPECT_TRUE(empty.Predict(none).empty());
}

}  // namespace
}  // namespace autotest::core
