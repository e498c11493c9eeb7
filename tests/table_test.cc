#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "table/column.h"
#include "table/column_store.h"
#include "table/csv.h"
#include "table/table.h"

namespace autotest::table {
namespace {

TEST(ColumnTest, DistinctOrderAndCounts) {
  Column c;
  c.values = {"a", "b", "a", "c", "b", "a"};
  DistinctValues d = Distinct(c);
  ASSERT_EQ(d.values.size(), 3u);
  EXPECT_EQ(d.values[0], "a");
  EXPECT_EQ(d.values[1], "b");
  EXPECT_EQ(d.values[2], "c");
  EXPECT_EQ(d.counts[0], 3u);
  EXPECT_EQ(d.counts[1], 2u);
  EXPECT_EQ(d.counts[2], 1u);
  EXPECT_EQ(d.total, 6u);
}

TEST(ColumnTest, DistinctEmpty) {
  Column c;
  DistinctValues d = Distinct(c);
  EXPECT_TRUE(d.values.empty());
  EXPECT_TRUE(d.row_index.empty());
  EXPECT_EQ(d.total, 0u);
}

// Values, counts and each row's distinct index against a naive quadratic
// loop, on a column with repeats, empty strings, embedded NULs and long
// values.
TEST(ColumnTest, DistinctMatchesNaiveLoop) {
  Column c;
  for (size_t i = 0; i < 500; ++i) {
    switch (i % 7) {
      case 0:
        c.values.push_back("");
        break;
      case 1:
        c.values.push_back(std::string("a\0b", 3) + std::to_string(i % 5));
        break;
      case 2:
        c.values.push_back(std::string(40 + i % 3, 'z'));
        break;
      default:
        c.values.push_back("v" + std::to_string((i * 31) % 53));
    }
  }
  std::vector<std::string> values;
  std::vector<size_t> counts;
  std::vector<uint32_t> row_index;
  for (const std::string& v : c.values) {
    size_t k = 0;
    while (k < values.size() && values[k] != v) ++k;
    if (k == values.size()) {
      values.push_back(v);
      counts.push_back(0);
    }
    ++counts[k];
    row_index.push_back(static_cast<uint32_t>(k));
  }
  const DistinctValues d = Distinct(c);
  EXPECT_EQ(d.values, values);
  EXPECT_EQ(d.counts, counts);
  EXPECT_EQ(d.row_index, row_index);
  EXPECT_EQ(d.total, c.values.size());
  EXPECT_EQ(d.size(), values.size());
}

TEST(ColumnTest, LooksNumeric) {
  EXPECT_TRUE(LooksNumeric("123"));
  EXPECT_TRUE(LooksNumeric("-1.5"));
  EXPECT_TRUE(LooksNumeric("+0.25"));
  EXPECT_TRUE(LooksNumeric(" 42 "));
  EXPECT_FALSE(LooksNumeric("1.2.3"));
  EXPECT_FALSE(LooksNumeric("12a"));
  EXPECT_FALSE(LooksNumeric(""));
  EXPECT_FALSE(LooksNumeric("-"));
  EXPECT_FALSE(LooksNumeric("$12"));
}

TEST(ColumnTest, IsMostlyNumeric) {
  Column c;
  c.values = {"1", "2", "3", "4", "x"};
  EXPECT_TRUE(IsMostlyNumeric(c, 0.8));
  EXPECT_FALSE(IsMostlyNumeric(c, 0.9));
  Column empty;
  EXPECT_FALSE(IsMostlyNumeric(empty));
}

TEST(ColumnTest, Stats) {
  Column c;
  c.values = {"ab", "ab", "12"};
  ColumnStats s = ComputeStats(c);
  EXPECT_EQ(s.num_values, 3u);
  EXPECT_EQ(s.num_distinct, 2u);
  EXPECT_DOUBLE_EQ(s.mean_length, 2.0);
  EXPECT_NEAR(s.numeric_fraction, 1.0 / 3.0, 1e-9);
}

TEST(TableTest, ToCorpusFlattens) {
  Table t1;
  t1.columns.resize(2);
  Table t2;
  t2.columns.resize(3);
  Corpus c = ToCorpus({t1, t2});
  EXPECT_EQ(c.size(), 5u);
}

TEST(CsvTest, RoundTripSimple) {
  Table t;
  Column a;
  a.name = "x";
  a.values = {"1", "2"};
  Column b;
  b.name = "y";
  b.values = {"foo", "bar"};
  t.columns = {a, b};
  std::string text = WriteCsv(t);
  auto parsed = TryParseCsv(text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->columns.size(), 2u);
  EXPECT_EQ(parsed->columns[0].name, "x");
  EXPECT_EQ(parsed->columns[1].values[1], "bar");
}

TEST(CsvTest, QuotedFields) {
  auto t = TryParseCsv("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->columns[0].values[0], "x,y");
  EXPECT_EQ(t->columns[1].values[0], "he said \"hi\"");
}

TEST(CsvTest, EmbeddedNewline) {
  auto t = TryParseCsv("a\n\"line1\nline2\"\n");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->columns[0].values.size(), 1u);
  EXPECT_EQ(t->columns[0].values[0], "line1\nline2");
}

TEST(CsvTest, CrlfHandling) {
  auto t = TryParseCsv("a,b\r\n1,2\r\n3,4\r\n");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->columns[0].values.size(), 2u);
  EXPECT_EQ(t->columns[1].values[1], "4");
}

TEST(CsvTest, ShortRowsPadded) {
  auto t = TryParseCsv("a,b,c\n1,2\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->columns[2].values[0], "");
}

TEST(CsvTest, UnterminatedQuoteFails) {
  EXPECT_FALSE(TryParseCsv("a\n\"oops\n").ok());
}

TEST(CsvTest, UnterminatedQuoteDiagnostic) {
  auto r = TryParseCsv("a,b\n1,\"oops\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kDataLoss);
  // The quote opens on line 2, field 2, byte 6.
  EXPECT_NE(r.status().message().find("line 2, field 2, byte offset 6"),
            std::string::npos)
      << r.status().ToString();
}

TEST(CsvTest, OversizedFieldRejected) {
  CsvOptions opt;
  opt.max_field_bytes = 8;
  auto r = TryParseCsv("a,b\nshort,waytoolongforthelimit\n", opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("max_field_bytes=8"),
            std::string::npos);
  EXPECT_NE(r.status().message().find("line 2, field 2"),
            std::string::npos)
      << r.status().ToString();
}

TEST(CsvTest, OversizedQuotedFieldRejected) {
  CsvOptions opt;
  opt.max_field_bytes = 4;
  auto r = TryParseCsv("a\n\"123456789\"\n", opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kResourceExhausted);
}

TEST(CsvTest, OversizedRowRejected) {
  CsvOptions opt;
  opt.max_row_bytes = 10;
  auto r = TryParseCsv("a,b,c\n1234,5678,9012\n", opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("max_row_bytes=10"),
            std::string::npos);
}

TEST(CsvTest, TooManyColumnsRejected) {
  CsvOptions opt;
  opt.max_columns = 3;
  auto r = TryParseCsv("a,b,c,d,e\n", opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("max_columns=3"), std::string::npos);
}

TEST(CsvTest, LimitsOffByDefaultForNormalInput) {
  // Defaults are generous: a perfectly ordinary table sails through.
  auto r = TryParseCsv("a,b\n1,2\n3,4\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2u);
}

TEST(CsvTest, ZeroDisablesLimit) {
  CsvOptions opt;
  opt.max_field_bytes = 0;
  opt.max_row_bytes = 0;
  opt.max_columns = 0;
  std::string big(1 << 10, 'x');
  auto r = TryParseCsv("a\n" + big + "\n", opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->columns[0].values[0].size(), size_t{1} << 10);
}

TEST(CsvTest, TruncatedInputStillParses) {
  // Truncation mid-row (no trailing newline) is tolerated — the partial
  // row is kept, matching the historical contract.
  auto r = TryParseCsv("a,b\n1,2\n3,");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->columns[1].values[1], "");
}

TEST(CsvTest, ReadMissingFileIsNotFound) {
  auto r = TryReadCsvFile("/nonexistent/no/such.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kNotFound);
}

TEST(CsvTest, ReadFileParseErrorCarriesPathContext) {
  const std::string path = "/tmp/autotest_csv_badquote.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "a\n\"unterminated\n";
  }
  auto r = TryReadCsvFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kDataLoss);
  EXPECT_NE(r.status().ToString().find(path), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvTest, NoHeaderMode) {
  CsvOptions opt;
  opt.has_header = false;
  auto t = TryParseCsv("1,2\n3,4\n", opt);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->columns[0].name, "col0");
  EXPECT_EQ(t->columns[0].values.size(), 2u);
}

TEST(CsvTest, RoundTripWithSpecials) {
  Table t;
  Column a;
  a.name = "weird,name";
  a.values = {"v\"q", "a,b", "line\nbreak", "plain"};
  t.columns = {a};
  auto parsed = TryParseCsv(WriteCsv(t));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->columns[0].name, "weird,name");
  for (size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(parsed->columns[0].values[i], a.values[i]);
  }
}

// ---------------------------------------------------------------------------
// ColumnStore (DESIGN.md §4k): interning, per-column parity with Distinct,
// Find, arena stability, and pool identity.
// ---------------------------------------------------------------------------

Corpus MakeCorpus(std::vector<std::vector<std::string>> columns) {
  Corpus corpus;
  for (auto& values : columns) {
    Column c;
    c.values = std::move(values);
    corpus.push_back(std::move(c));
  }
  return corpus;
}

TEST(ColumnStoreTest, InternsSharedValuesOnce) {
  Corpus corpus = MakeCorpus({{"us", "fr", "us", "de"},
                              {"fr", "fr", "jp"},
                              {"de", "us"}});
  ColumnStore store = ColumnStore::FromCorpus(corpus);
  // Distinct values across all columns: us, fr, de, jp — each interned
  // exactly once, in first-seen order across columns.
  ASSERT_EQ(store.pool_size(), 4u);
  EXPECT_EQ(store.pool()[0], "us");
  EXPECT_EQ(store.pool()[1], "fr");
  EXPECT_EQ(store.pool()[2], "de");
  EXPECT_EQ(store.pool()[3], "jp");
  EXPECT_EQ(store.num_columns(), 3u);
}

TEST(ColumnStoreTest, ColumnsMatchDistinct) {
  Corpus corpus = MakeCorpus({{"a", "b", "a", "c", "b", "a"},
                              {},
                              {"b", "b", "b"}});
  ColumnStore store = ColumnStore::FromCorpus(corpus);
  ASSERT_EQ(store.num_columns(), corpus.size());
  for (size_t c = 0; c < corpus.size(); ++c) {
    DistinctValues d = Distinct(corpus[c]);
    ColumnStore::ColumnRef ref = store.column(c);
    ASSERT_EQ(ref.size(), d.size()) << c;
    EXPECT_EQ(ref.total_weight, d.total) << c;
    for (size_t i = 0; i < d.size(); ++i) {
      EXPECT_EQ(store.pool()[ref.ids[i]], d.values[i]) << c;
      EXPECT_EQ(ref.counts[i], d.counts[i]) << c;
    }
  }
}

TEST(ColumnStoreTest, FindRoundTripsAndRejectsUnknown) {
  Corpus corpus = MakeCorpus({{"alpha", "beta", "", "gamma"}});
  ColumnStore store = ColumnStore::FromCorpus(corpus);
  for (size_t id = 0; id < store.pool_size(); ++id) {
    EXPECT_EQ(store.Find(store.pool()[id]), id);
  }
  EXPECT_EQ(store.Find("delta"), ColumnStore::kNotFound);
  // The empty string is a real corpus value and must intern like any other.
  EXPECT_NE(store.Find(""), ColumnStore::kNotFound);
}

TEST(ColumnStoreTest, ArenaViewsSurviveMoveAndOversizedValues) {
  // An oversized value gets a dedicated chunk; small values keep packing
  // into the current chunk afterwards. All views must stay valid across a
  // move of the store.
  std::string huge(1 << 19, 'x');  // 2x the arena chunk size
  Corpus corpus = MakeCorpus({{"small1", huge, "small2"}});
  ColumnStore built = ColumnStore::FromCorpus(corpus);
  ColumnStore store = std::move(built);
  ASSERT_EQ(store.pool_size(), 3u);
  EXPECT_EQ(store.pool()[0], "small1");
  EXPECT_EQ(store.pool()[1], huge);
  EXPECT_EQ(store.pool()[2], "small2");
  EXPECT_GE(store.arena_bytes(), huge.size() + 12);
  EXPECT_EQ(store.Find(huge), 1u);
}

}  // namespace
}  // namespace autotest::table
