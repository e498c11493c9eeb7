#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "datagen/corpus_gen.h"
#include "embed/embedding.h"
#include "typedet/shipped_zoos.h"

namespace autotest::baselines {
namespace {

table::Column MonthColumnWithError() {
  table::Column c;
  c.name = "month";
  for (const char* m : {"january", "february", "march", "april", "may",
                        "june", "july", "august", "september", "october",
                        "november", "december", "january", "march"}) {
    c.values.push_back(m);
  }
  c.values.push_back("febuary");  // typo at the last row
  return c;
}

table::Column FiscalYearColumnWithError() {
  table::Column c;
  c.name = "fy";
  for (int i = 10; i < 24; ++i) c.values.push_back("fy" + std::to_string(i));
  c.values.push_back("fy definition");  // metadata leak (paper C5)
  return c;
}

bool Flags(const std::vector<eval::ScoredCell>& cells, size_t row) {
  for (const auto& c : cells) {
    if (c.row == row) return true;
  }
  return false;
}

TEST(RegexDetectorTest, FlagsPatternBreaker) {
  RegexDetector regex;
  table::Column c = FiscalYearColumnWithError();
  auto cells = regex.Detect(c);
  EXPECT_TRUE(Flags(cells, c.values.size() - 1));
  // Scores are the dominant fraction.
  for (const auto& cell : cells) {
    EXPECT_GT(cell.score, 0.8);
    EXPECT_LE(cell.score, 1.0);
  }
}

TEST(RegexDetectorTest, NoDominantPatternNoFlags) {
  RegexDetector regex;
  table::Column c;
  c.values = {"a1", "bb", "c-3", "dd dd", "12", "x@y"};
  EXPECT_TRUE(regex.Detect(c).empty());
}

TEST(FunctionDetectorTest, FlagsInvalidDate) {
  FunctionDetector det("dataprep", "dataprep-sim");
  table::Column c;
  for (int i = 1; i <= 20; ++i) {
    c.values.push_back("5/" + std::to_string(i) + "/2022");
  }
  c.values.push_back("june");
  auto cells = det.Detect(c);
  EXPECT_TRUE(Flags(cells, c.values.size() - 1));
  EXPECT_EQ(cells.size(), 1u);
}

TEST(FunctionDetectorTest, SilentWhenNoValidatorMatches) {
  FunctionDetector det("validators", "validators-sim");
  table::Column c = MonthColumnWithError();
  EXPECT_TRUE(det.Detect(c).empty());
}

TEST(KataraSimTest, FlagsNonMembers) {
  KataraSim katara;
  table::Column c = MonthColumnWithError();
  auto cells = katara.Detect(c);
  EXPECT_TRUE(Flags(cells, c.values.size() - 1));
}

TEST(KataraSimTest, SilentOnUnknownDomains) {
  KataraSim katara;
  table::Column c;
  c.values = {"zz1", "zz2", "zz3", "zz4"};
  EXPECT_TRUE(katara.Detect(c).empty());
}

TEST(KataraSimTest, StaticThresholdFlagsRareValuesToo) {
  // Katara's weakness (motivates calibrated SDCs): a rare-but-valid tail
  // value that the KB happens to miss... here tail members ARE in the KB,
  // so instead verify typos are flagged while members are not.
  KataraSim katara;
  table::Column c = MonthColumnWithError();
  auto cells = katara.Detect(c);
  EXPECT_EQ(cells.size(), 1u);
}

TEST(VendorSimTest, VendorAFlagsPatternViolation) {
  VendorSim a(VendorSim::Kind::kA);
  table::Column c = FiscalYearColumnWithError();
  EXPECT_TRUE(Flags(a.Detect(c), c.values.size() - 1));
}

TEST(VendorSimTest, VendorBFlagsDigitIntrusion) {
  VendorSim b(VendorSim::Kind::kB);
  table::Column c = MonthColumnWithError();
  c.values.push_back("12345");
  EXPECT_TRUE(Flags(b.Detect(c), c.values.size() - 1));
}

TEST(LlmSimTest, DeterministicAndFlatScores) {
  LlmSim llm(LlmSim::PaperVariants().front());
  table::Column c = MonthColumnWithError();
  auto a = llm.Detect(c);
  auto b = llm.Detect(c);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].row, b[i].row);
    EXPECT_DOUBLE_EQ(a[i].score, 1.0);
  }
}

TEST(LlmSimTest, VariantsDiffer) {
  auto variants = LlmSim::PaperVariants();
  EXPECT_EQ(variants.size(), 5u);
  EXPECT_NE(variants[0].name, variants[1].name);
}

TEST(CtaZScoreTest, FlagsIncompatibleValue) {
  auto zoo = typedet::SharedSherlockSim();
  CtaZScoreDetector det("sherlock", zoo.get());
  table::Column c;
  c.name = "state";
  for (const char* s : {"fl", "az", "ca", "ok", "al", "ga", "tx", "ny",
                        "wa", "or", "il", "mi", "oh", "pa", "nc", "va"}) {
    c.values.push_back(s);
  }
  c.values.push_back("germany");
  EXPECT_TRUE(Flags(det.Detect(c), c.values.size() - 1));
}

TEST(EmbeddingZScoreTest, FlagsFarValueButAlsoRareOnes) {
  auto glove = embed::MakeGloveSim();
  EmbeddingZScoreDetector det("glove", glove.get());
  table::Column c;
  c.name = "name";
  for (const char* s : {"james", "mary", "john", "linda", "sarah", "karen",
                        "kevin", "brian", "laura", "emma", "peter",
                        "helen"}) {
    c.values.push_back(s);
  }
  c.values.push_back("omayra");  // rare valid name: OOV for GloVe
  auto cells = det.Detect(c);
  // This is the paper's Example-2 false positive: the naive embedding
  // baseline flags the rare-but-valid name.
  EXPECT_TRUE(Flags(cells, c.values.size() - 1));
}

TEST(OutlierBaselineTest, AllKindsRun) {
  table::Column c = MonthColumnWithError();
  for (OutlierKind kind :
       {OutlierKind::kLof, OutlierKind::kDbod, OutlierKind::kRkde,
        OutlierKind::kPpca, OutlierKind::kIForest, OutlierKind::kSvdd}) {
    OutlierDetectorBaseline det(kind);
    auto cells = det.Detect(c);  // must not crash; may or may not flag
    for (const auto& cell : cells) {
      EXPECT_LT(cell.row, c.values.size());
    }
  }
}

TEST(AutoDetectSimTest, FlagsRareCooccurrence) {
  auto corpus = datagen::GenerateCorpus(datagen::TablibProfile(400, 51));
  AutoDetectSim sim = AutoDetectSim::Train(corpus);
  table::Column c = FiscalYearColumnWithError();
  auto cells = sim.Detect(c);
  EXPECT_TRUE(Flags(cells, c.values.size() - 1));
}

}  // namespace
}  // namespace autotest::baselines
