#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "datagen/corpus_gen.h"
#include "kernel_oracles.h"
#include "pattern/miner.h"
#include "pattern/pattern.h"
#include "table/table.h"

namespace autotest::pattern {
namespace {

TEST(PatternParseTest, BasicClasses) {
  auto p = Pattern::Parse("\\d+");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->Matches("12345"));
  EXPECT_FALSE(p->Matches("123a"));
  EXPECT_FALSE(p->Matches(""));
}

TEST(PatternParseTest, PaperPatterns) {
  // r5 from the paper's Table 1: "[a-zA-Z]+\d+" (fiscal years like fy17).
  auto r5 = Pattern::Parse("[a-zA-Z]+\\d+");
  ASSERT_TRUE(r5.has_value());
  EXPECT_TRUE(r5->Matches("fy17"));
  EXPECT_TRUE(r5->Matches("tt0054215"));
  EXPECT_FALSE(r5->Matches("fy definition"));
  EXPECT_FALSE(r5->Matches("17fy"));

  // r6: "\d+ [a-zA-Z]+" (units like "12 oz").
  auto r6 = Pattern::Parse("\\d+ [a-zA-Z]+");
  ASSERT_TRUE(r6.has_value());
  EXPECT_TRUE(r6->Matches("12 oz"));
  EXPECT_TRUE(r6->Matches("107 patients"));
  EXPECT_FALSE(r6->Matches("0.05%"));
}

TEST(PatternParseTest, DatePattern) {
  auto p = Pattern::Parse("\\d{1,2}/\\d{1,2}/\\d{4}");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->Matches("12/3/2020"));
  EXPECT_TRUE(p->Matches("1/13/1999"));
  EXPECT_FALSE(p->Matches("12/3/20"));
  EXPECT_FALSE(p->Matches("new facility"));
}

TEST(PatternParseTest, FixedLength) {
  auto p = Pattern::Parse("\\d{3}");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->Matches("123"));
  EXPECT_FALSE(p->Matches("12"));
  EXPECT_FALSE(p->Matches("1234"));
}

TEST(PatternParseTest, CaseClasses) {
  auto lower = Pattern::Parse("[a-z]+");
  auto upper = Pattern::Parse("[A-Z]+");
  ASSERT_TRUE(lower.has_value());
  ASSERT_TRUE(upper.has_value());
  EXPECT_TRUE(lower->Matches("abc"));
  EXPECT_FALSE(lower->Matches("Abc"));
  EXPECT_TRUE(upper->Matches("ABC"));
  EXPECT_FALSE(upper->Matches("AbC"));
}

TEST(PatternParseTest, EscapedLiterals) {
  auto p = Pattern::Parse("\\d+\\+\\d+");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->Matches("1+2"));
  EXPECT_FALSE(p->Matches("1-2"));
}

TEST(PatternParseTest, MalformedInputs) {
  EXPECT_FALSE(Pattern::Parse("\\").has_value());
  EXPECT_FALSE(Pattern::Parse("\\d{").has_value());
  EXPECT_FALSE(Pattern::Parse("\\d{a}").has_value());
  EXPECT_FALSE(Pattern::Parse("\\d{3,1}").has_value());
  EXPECT_FALSE(Pattern::Parse("[a-c]+").has_value());
  EXPECT_FALSE(Pattern::Parse("+").has_value());
}

TEST(PatternMatchTest, BacktrackingAcrossAdjacentClasses) {
  // \d+\d{2} requires the + to give back characters.
  auto p = Pattern::Parse("\\d+\\d{2}");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->Matches("123"));
  EXPECT_FALSE(p->Matches("12"));
}

TEST(PatternMatchTest, EmptyPatternMatchesEmptyOnly) {
  Pattern p;
  EXPECT_TRUE(p.Matches(""));
  EXPECT_FALSE(p.Matches("a"));
}

// Matches walks each atom's stops from the longest down instead of
// collecting them in a vector; the booleans must not change. Checked on
// every pattern mined from a generated corpus, plus both generalizations
// of a sample of its values, against every distinct value of the corpus,
// and on hand-written edge cases.
TEST(PatternMatchTest, BacktrackingMatchesStopVectorOracle) {
  const table::Corpus corpus =
      datagen::GenerateCorpus(datagen::RelationalTablesProfile(300));
  std::set<std::string> distinct;
  for (const table::Column& column : corpus) {
    distinct.insert(column.values.begin(), column.values.end());
  }
  std::vector<Pattern> patterns;
  for (const MinedPattern& mined : MinePatterns(corpus)) {
    patterns.push_back(mined.pattern);
  }
  ASSERT_GE(patterns.size(), 10u);
  size_t sampled = 0;
  for (const std::string& value : distinct) {
    if (sampled++ % 97 != 0) continue;
    patterns.push_back(Generalize(value, GeneralizationLevel::kExactDigits));
    patterns.push_back(Generalize(value, GeneralizationLevel::kGeneral));
  }
  size_t matched = 0;
  for (const Pattern& p : patterns) {
    for (const std::string& value : distinct) {
      const bool expected = oracle::PatternMatchesWithStops(p, value);
      ASSERT_EQ(p.Matches(value), expected) << p.ToString() << " " << value;
      if (expected) ++matched;
    }
  }
  EXPECT_GT(matched, distinct.size());

  // The empty value, exact-length and bounded quantifiers, and adjacent
  // classes that must give characters back to each other.
  const std::vector<std::string> texts = {
      "", "\\d", "\\d{3}", "\\d{0}", "\\d{1,3}\\d{2}", "\\d+\\d{2}",
      "[a-z]+[a-zA-Z]+", "[a-zA-Z]{2}[A-Z]+\\d", "[a-z]{0,2}x", "-\\d+-"};
  const std::vector<std::string> values = {
      "", "1", "12", "123", "1234", "12345", "abC", "aB1", "ABC1", "xx", "x",
      "abx", "abcx", "-12-", "--", "1-2-3", "zzZZ9", "Zz", "a", " ", "12a"};
  for (const std::string& text : texts) {
    std::optional<Pattern> p = Pattern::Parse(text);
    ASSERT_TRUE(p.has_value()) << text;
    for (const std::string& value : values) {
      EXPECT_EQ(p->Matches(value), oracle::PatternMatchesWithStops(*p, value))
          << text << " " << value;
    }
  }
}

TEST(PatternRoundTripTest, ParseToStringStable) {
  for (const char* text :
       {"\\d+", "[a-zA-Z]+\\d+", "\\d{1,2}/\\d{1,2}/\\d{4}",
        "[a-z]{2}\\d{2}", "\\d+ [a-zA-Z]+", "#[a-z]+"}) {
    auto p = Pattern::Parse(text);
    ASSERT_TRUE(p.has_value()) << text;
    EXPECT_EQ(p->ToString(), text);
    auto again = Pattern::Parse(p->ToString());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, *p);
  }
}

TEST(GeneralizeTest, ExactDigitsLevel) {
  Pattern p = Generalize("fy17", GeneralizationLevel::kExactDigits);
  EXPECT_EQ(p.ToString(), "[a-zA-Z]+\\d{2}");
  EXPECT_TRUE(p.Matches("fy18"));
  EXPECT_FALSE(p.Matches("fy2017"));
}

TEST(GeneralizeTest, GeneralLevel) {
  Pattern p = Generalize("fy17", GeneralizationLevel::kGeneral);
  EXPECT_EQ(p.ToString(), "[a-zA-Z]+\\d+");
  EXPECT_TRUE(p.Matches("fy2017"));
}

TEST(GeneralizeTest, MixedSeparators) {
  Pattern p = Generalize("12/3/2020", GeneralizationLevel::kExactDigits);
  EXPECT_EQ(p.ToString(), "\\d{2}/\\d/\\d{4}");
  EXPECT_TRUE(p.Matches("11/4/2021"));
  EXPECT_FALSE(p.Matches("1/13/2021"));
}

TEST(GeneralizeTest, SelfMatchProperty) {
  // Every value must match its own generalization at both levels.
  const char* values[] = {"fy17",       "12/3/2020", "https://a.b/c",
                          "b50005237",  "12 oz",     "RP11-6L6.2",
                          "hello world", "#a3f2c1",  "0.05%"};
  for (const char* v : values) {
    EXPECT_TRUE(
        Generalize(v, GeneralizationLevel::kExactDigits).Matches(v))
        << v;
    EXPECT_TRUE(Generalize(v, GeneralizationLevel::kGeneral).Matches(v))
        << v;
  }
}

TEST(MinerTest, FindsDominantPatterns) {
  table::Corpus corpus;
  // 5 columns of fiscal years, 4 of dates.
  for (int c = 0; c < 5; ++c) {
    table::Column col;
    col.name = "fy";
    for (int i = 10; i < 25; ++i) col.values.push_back("fy" + std::to_string(i));
    corpus.push_back(col);
  }
  for (int c = 0; c < 4; ++c) {
    table::Column col;
    col.name = "date";
    for (int i = 10; i < 22; ++i) {
      col.values.push_back("11/" + std::to_string(i) + "/2020");
    }
    corpus.push_back(col);
  }
  MinerOptions opt;
  opt.min_column_support = 3;
  auto mined = MinePatterns(corpus, opt);
  ASSERT_FALSE(mined.empty());
  bool has_fy = false;
  bool has_date = false;
  for (const auto& m : mined) {
    std::string s = m.pattern.ToString();
    if (s == "[a-zA-Z]+\\d+" || s == "[a-zA-Z]+\\d{2}") has_fy = true;
    if (s == "\\d{2}/\\d{2}/\\d{4}" || s == "\\d+/\\d+/\\d+") has_date = true;
  }
  EXPECT_TRUE(has_fy);
  EXPECT_TRUE(has_date);
}

TEST(MinerTest, RespectsSupportThreshold) {
  table::Corpus corpus;
  table::Column col;
  col.name = "only_one";
  for (int i = 0; i < 10; ++i) col.values.push_back("zz" + std::to_string(i));
  corpus.push_back(col);
  MinerOptions opt;
  opt.min_column_support = 3;
  EXPECT_TRUE(MinePatterns(corpus, opt).empty());
}

TEST(MinerTest, DropsTrivialPatterns) {
  table::Corpus corpus;
  for (int c = 0; c < 6; ++c) {
    table::Column col;
    col.name = "words";
    for (const char* w : {"apple", "pear", "plum", "fig", "kiwi", "melon"}) {
      col.values.push_back(w);
    }
    corpus.push_back(col);
  }
  auto mined = MinePatterns(corpus);
  for (const auto& m : mined) {
    EXPECT_NE(m.pattern.ToString(), "[a-zA-Z]+");
  }
}

TEST(MinerTest, DominantPatternPerColumn) {
  table::Column col;
  col.values = {"a1", "b2", "c3", "d4", "e5", "hello"};
  Pattern p = DominantPattern(col, GeneralizationLevel::kGeneral, 0.8);
  EXPECT_EQ(p.ToString(), "[a-zA-Z]+\\d+");
  Pattern none = DominantPattern(col, GeneralizationLevel::kGeneral, 0.95);
  EXPECT_TRUE(none.empty());
}

}  // namespace
}  // namespace autotest::pattern
