#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "datagen/corpus_gen.h"
#include "datagen/gazetteer.h"
#include "kernel_oracles.h"
#include "table/column_store.h"
#include "typedet/cta_zoo.h"
#include "typedet/eval_functions.h"
#include "typedet/shipped_zoos.h"
#include "typedet/validators.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace autotest::typedet {
namespace {

// ---------------------------------------------------------------------------
// Validators
// ---------------------------------------------------------------------------

TEST(ValidatorsTest, Date) {
  EXPECT_TRUE(ValidateDate("12/3/2020"));
  EXPECT_TRUE(ValidateDate("1/31/1999"));
  EXPECT_TRUE(ValidateDate("2020-02-29"));  // leap year
  EXPECT_TRUE(ValidateDate("4/2/15"));      // 2-digit year
  EXPECT_FALSE(ValidateDate("2019-02-29"));  // not a leap year
  EXPECT_FALSE(ValidateDate("13/1/2020"));
  EXPECT_FALSE(ValidateDate("2/30/2020"));
  EXPECT_FALSE(ValidateDate("new facility"));
  EXPECT_FALSE(ValidateDate("nan"));
  EXPECT_FALSE(ValidateDate("june"));
  EXPECT_FALSE(ValidateDate(""));
}

TEST(ValidatorsTest, Time) {
  EXPECT_TRUE(ValidateTime("14:35"));
  EXPECT_TRUE(ValidateTime("0:00"));
  EXPECT_TRUE(ValidateTime("23:59:59"));
  EXPECT_FALSE(ValidateTime("24:00"));
  EXPECT_FALSE(ValidateTime("12:60"));
  EXPECT_FALSE(ValidateTime("12:5"));
  EXPECT_FALSE(ValidateTime("noon"));
}

TEST(ValidatorsTest, DateTime) {
  EXPECT_TRUE(ValidateDateTime("2020-03-04 12:33:01"));
  EXPECT_FALSE(ValidateDateTime("2020-03-04"));
  EXPECT_FALSE(ValidateDateTime("2020-13-04 12:33:01"));
}

TEST(ValidatorsTest, Url) {
  EXPECT_TRUE(ValidateUrl("https://www.apple.com/products/123"));
  EXPECT_TRUE(ValidateUrl("http://a.io"));
  EXPECT_TRUE(
      ValidateUrl("https://twitter.com/#!/nyctbus/status/803706869944"));
  EXPECT_FALSE(ValidateUrl("_/status/799512626703323140"));
  EXPECT_FALSE(ValidateUrl("new facility"));
  EXPECT_FALSE(ValidateUrl("https://"));
  EXPECT_FALSE(ValidateUrl("ftp://host.com/x"));
  EXPECT_FALSE(ValidateUrl("https://nodot/x"));
}

TEST(ValidatorsTest, Email) {
  EXPECT_TRUE(ValidateEmail("john.doe@example.com"));
  EXPECT_TRUE(ValidateEmail("a+b@sub.domain.org"));
  EXPECT_FALSE(ValidateEmail("@example.com"));
  EXPECT_FALSE(ValidateEmail("a@b"));
  EXPECT_FALSE(ValidateEmail("a b@c.com"));
  EXPECT_FALSE(ValidateEmail("a@@c.com"));
}

TEST(ValidatorsTest, Ipv4) {
  EXPECT_TRUE(ValidateIpv4("192.168.1.1"));
  EXPECT_TRUE(ValidateIpv4("8.8.8.8"));
  EXPECT_FALSE(ValidateIpv4("256.1.1.1"));
  EXPECT_FALSE(ValidateIpv4("1.2.3"));
  EXPECT_FALSE(ValidateIpv4("01.2.3.4"));
  EXPECT_FALSE(ValidateIpv4("a.b.c.d"));
}

TEST(ValidatorsTest, Uuid) {
  EXPECT_TRUE(ValidateUuid("123e4567-e89b-12d3-a456-426614174000"));
  EXPECT_FALSE(ValidateUuid("123e4567e89b12d3a456426614174000"));
  EXPECT_FALSE(ValidateUuid("123e4567-e89b-12d3-a456-42661417400g"));
}

TEST(ValidatorsTest, CreditCardLuhn) {
  EXPECT_TRUE(ValidateCreditCard("4539578763621486"));  // Luhn-valid
  EXPECT_TRUE(ValidateCreditCard("4539 5787 6362 1486"));
  EXPECT_FALSE(ValidateCreditCard("4539578763621487"));  // bad check digit
  EXPECT_FALSE(ValidateCreditCard("123"));
  EXPECT_FALSE(ValidateCreditCard("abcd578763621486"));
}

TEST(ValidatorsTest, Upc) {
  EXPECT_TRUE(ValidateUpc("036000291452"));   // classic example UPC
  EXPECT_FALSE(ValidateUpc("036000291453"));  // bad check digit
  EXPECT_FALSE(ValidateUpc("03600029145"));   // 11 digits
}

TEST(ValidatorsTest, Isbn13) {
  EXPECT_TRUE(ValidateIsbn13("9780306406157"));
  EXPECT_FALSE(ValidateIsbn13("9780306406158"));
  EXPECT_FALSE(ValidateIsbn13("1234567890123"));
}

TEST(ValidatorsTest, PhoneUs) {
  EXPECT_TRUE(ValidatePhoneUs("612-555-0184"));
  EXPECT_TRUE(ValidatePhoneUs("(612) 555-0184"));
  EXPECT_TRUE(ValidatePhoneUs("6125550184"));
  EXPECT_FALSE(ValidatePhoneUs("612-555-018"));
  EXPECT_FALSE(ValidatePhoneUs("112-555-0184"));  // area code starts with 1
  EXPECT_FALSE(ValidatePhoneUs("call me"));
}

TEST(ValidatorsTest, Percent) {
  EXPECT_TRUE(ValidatePercent("12.5%"));
  EXPECT_TRUE(ValidatePercent("0.05%"));
  EXPECT_TRUE(ValidatePercent("-3%"));
  EXPECT_FALSE(ValidatePercent("12.5"));
  EXPECT_FALSE(ValidatePercent("%"));
  EXPECT_FALSE(ValidatePercent("a%"));
}

TEST(ValidatorsTest, HexColor) {
  EXPECT_TRUE(ValidateHexColor("#a3f2c1"));
  EXPECT_TRUE(ValidateHexColor("#fff"));
  EXPECT_FALSE(ValidateHexColor("a3f2c1"));
  EXPECT_FALSE(ValidateHexColor("#a3f2cg"));
}

TEST(ValidatorsTest, MacAddress) {
  EXPECT_TRUE(ValidateMacAddress("00:1a:2b:3c:4d:5e"));
  EXPECT_TRUE(ValidateMacAddress("00-1A-2B-3C-4D-5E"));
  EXPECT_FALSE(ValidateMacAddress("00:1a:2b:3c:4d"));
  EXPECT_FALSE(ValidateMacAddress("00:1a:2b:3c:4d:5g"));
}

TEST(ValidatorsTest, WebDomain) {
  EXPECT_TRUE(ValidateWebDomain("apple.com"));
  EXPECT_TRUE(ValidateWebDomain("google.com.hk"));
  EXPECT_TRUE(ValidateWebDomain("dyndns.info"));
  EXPECT_FALSE(ValidateWebDomain("https://apple.com"));
  EXPECT_FALSE(ValidateWebDomain("no_dot"));
  EXPECT_FALSE(ValidateWebDomain("bad..dot.com"));
}

TEST(ValidatorsTest, Iban) {
  // Valid German IBAN (ISO 7064 mod-97 == 1).
  EXPECT_TRUE(ValidateIban("DE89370400440532013000"));
  EXPECT_TRUE(ValidateIban("DE89 3704 0044 0532 0130 00"));
  EXPECT_FALSE(ValidateIban("DE88370400440532013000"));  // bad check
  EXPECT_FALSE(ValidateIban("D989370400440532013000"));  // bad country
  EXPECT_FALSE(ValidateIban("DE8937040"));               // too short
}

TEST(ValidatorsTest, Version) {
  EXPECT_TRUE(ValidateVersion("1.2.3"));
  EXPECT_TRUE(ValidateVersion("v2.0"));
  EXPECT_TRUE(ValidateVersion("10.4.1.2"));
  EXPECT_FALSE(ValidateVersion("1"));
  EXPECT_FALSE(ValidateVersion("1."));
  EXPECT_FALSE(ValidateVersion("a.b.c"));
  EXPECT_FALSE(ValidateVersion("1.2.3.4.5"));
}

TEST(ValidatorsTest, LatLon) {
  EXPECT_TRUE(ValidateLatLon("44.9778,-93.2650"));
  EXPECT_TRUE(ValidateLatLon("-90,180"));
  EXPECT_FALSE(ValidateLatLon("91,0"));
  EXPECT_FALSE(ValidateLatLon("44.9778"));
  EXPECT_FALSE(ValidateLatLon("north,west"));
}

TEST(ValidatorsTest, RegistryComplete) {
  EXPECT_GE(AllValidators().size(), 8u);  // paper uses 8; we ship more
  for (const auto& v : AllValidators()) {
    EXPECT_TRUE(v.library == "dataprep-sim" || v.library == "validators-sim");
    EXPECT_NE(v.fn, nullptr);
  }
}

// ---------------------------------------------------------------------------
// CTA zoos
// ---------------------------------------------------------------------------

// P(value belongs to type t) for every type t of the zoo, read from a
// one-value ScoreRows block.
std::vector<float> ScoreRow(const CtaModelZoo& zoo, std::string_view value) {
  std::vector<float> row(zoo.num_types());
  zoo.ScoreRows({&value, 1}, row.data(), util::MemoWrite::kInsert);
  return row;
}

class CtaZooTest : public ::testing::Test {
 protected:
  // The pre-trained zoos the product ships.
  const std::shared_ptr<CtaModelZoo> sherlock_ = SharedSherlockSim();
  const std::shared_ptr<CtaModelZoo> doduo_ = SharedDoduoSim();

  static size_t TypeIndex(const CtaModelZoo& zoo, const std::string& name) {
    for (size_t i = 0; i < zoo.type_names().size(); ++i) {
      if (zoo.type_names()[i] == name) return i;
    }
    ADD_FAILURE() << "type not in zoo: " << name;
    return 0;
  }
};

TEST_F(CtaZooTest, ZooSizes) {
  EXPECT_GT(doduo_->num_types(), sherlock_->num_types());
  EXPECT_GE(sherlock_->num_types(), 10u);
}

TEST_F(CtaZooTest, CountryClassifierSeparates) {
  size_t t = TypeIndex(*doduo_, "country");
  EXPECT_GT(ScoreRow(*doduo_, "germany")[t], 0.6);
  EXPECT_GT(ScoreRow(*doduo_, "france")[t], 0.6);
  EXPECT_LT(ScoreRow(*doduo_, "tt0054215")[t], 0.3);
  EXPECT_LT(ScoreRow(*doduo_, "12/3/2020")[t], 0.3);
}

TEST_F(CtaZooTest, StateClassifierFlagsIncompatibles) {
  // The paper's C2 example: "Germany" inside a state-code column.
  size_t t = TypeIndex(*sherlock_, "us_state_code");
  EXPECT_GT(ScoreRow(*sherlock_, "fl")[t], 0.5);
  EXPECT_GT(ScoreRow(*sherlock_, "ca")[t], 0.5);
  EXPECT_LT(ScoreRow(*sherlock_, "germany")[t], 0.2);
}

TEST_F(CtaZooTest, ScoresInRange) {
  for (const char* v : {"germany", "x", "", "12345", "hello world"}) {
    for (float s : ScoreRow(*doduo_, v)) {
      EXPECT_GE(s, 0.0f);
      EXPECT_LE(s, 1.0f);
    }
  }
}

// ---------------------------------------------------------------------------
// Evaluation functions & registry
// ---------------------------------------------------------------------------

TEST(EvalFunctionTest, PatternEvalBinaryDistance) {
  auto p = pattern::Pattern::Parse("[a-zA-Z]+\\d+");
  auto f = MakePatternEval(*p);
  EXPECT_EQ(f->family(), Family::kPattern);
  EXPECT_TRUE(f->binary());
  EXPECT_DOUBLE_EQ(f->Distance("fy17"), 0.0);
  EXPECT_DOUBLE_EQ(f->Distance("fy definition"), 1.0);
}

TEST(EvalFunctionTest, FunctionEvalUsesValidator) {
  auto f = MakeFunctionEval(AllValidators().front());  // validate_date
  EXPECT_EQ(f->family(), Family::kFunction);
  EXPECT_DOUBLE_EQ(f->Distance("12/3/2020"), 0.0);
  EXPECT_DOUBLE_EQ(f->Distance("new facility"), 1.0);
}

TEST(EvalFunctionTest, HashEvalUniform) {
  auto f = MakeRandomHashEval(77);
  double d1 = f->Distance("a");
  double d2 = f->Distance("b");
  EXPECT_GE(d1, 0.0);
  EXPECT_LE(d1, 1.0);
  EXPECT_NE(d1, d2);
  EXPECT_DOUBLE_EQ(f->Distance("a"), d1);  // deterministic
}

TEST(EvalFunctionSetTest, BuildAllFamilies) {
  auto corpus = datagen::GenerateCorpus(datagen::TablibProfile(300, 5));
  EvalFunctionSetOptions opt;
  opt.embedding_centroids_per_model = 30;
  auto set = EvalFunctionSet::Build(corpus, opt);
  EXPECT_FALSE(set.FamilyFunctions(Family::kCta).empty());
  EXPECT_FALSE(set.FamilyFunctions(Family::kEmbedding).empty());
  EXPECT_FALSE(set.FamilyFunctions(Family::kPattern).empty());
  EXPECT_FALSE(set.FamilyFunctions(Family::kFunction).empty());
  EXPECT_TRUE(set.FamilyFunctions(Family::kHash).empty());
  // Unique ids.
  std::set<std::string> ids;
  for (const auto& f : set.functions()) ids.insert(f->id());
  EXPECT_EQ(ids.size(), set.size());
}

TEST(EvalFunctionSetTest, AblationSwitches) {
  auto corpus = datagen::GenerateCorpus(datagen::TablibProfile(150, 6));
  EvalFunctionSetOptions opt;
  opt.include_cta = false;
  opt.include_embedding = false;
  opt.embedding_centroids_per_model = 10;
  auto set = EvalFunctionSet::Build(corpus, opt);
  EXPECT_TRUE(set.FamilyFunctions(Family::kCta).empty());
  EXPECT_TRUE(set.FamilyFunctions(Family::kEmbedding).empty());
  EXPECT_FALSE(set.FamilyFunctions(Family::kPattern).empty());
}

TEST(EvalFunctionSetTest, RandomHashInjection) {
  auto corpus = datagen::GenerateCorpus(datagen::TablibProfile(100, 7));
  EvalFunctionSetOptions opt;
  opt.include_cta = false;
  opt.include_embedding = false;
  opt.include_pattern = false;
  opt.include_function = false;
  opt.num_random_hash = 25;
  auto set = EvalFunctionSet::Build(corpus, opt);
  EXPECT_EQ(set.size(), 25u);
  for (const auto& f : set.functions()) {
    EXPECT_EQ(f->family(), Family::kHash);
  }
}

// ---------------------------------------------------------------------------
// The memo against a cold oracle. The shared models' rows, read back warm
// from their per-value memo, must equal bit for bit the rows fresh
// instances compute cold, and every function with a backend in a full
// eval set must give the same distances from them as its twin on the
// cold instance, through both the rows and the scalar Distance. 256 is
// the trainer's block; 1 and 37 cut the pool into blocks the trainer
// never sees.
// ---------------------------------------------------------------------------

void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(got[i]), std::bit_cast<uint64_t>(want[i]))
        << what << "[" << i << "]: " << got[i] << " vs " << want[i];
  }
}

// Fresh, cold instances of the four shared models.
struct ColdModels {
  const std::unique_ptr<CtaModelZoo> sherlock = CtaModelZoo::FromWeights(
      SherlockSimConfig(), SharedSherlockSim()->weights());
  const std::unique_ptr<CtaModelZoo> doduo =
      CtaModelZoo::FromWeights(DoduoSimConfig(), SharedDoduoSim()->weights());
  const std::unique_ptr<embed::EmbeddingModel> glove = embed::MakeGloveSim();
  const std::unique_ptr<embed::EmbeddingModel> sbert = embed::MakeSbertSim();

  // `warm` rebuilt on the cold instance of its model, with the type or
  // centroid value its id names ("cta:<zoo>:<type>",
  // "emb:<model>:<centroid>").
  std::unique_ptr<DomainEvalFunction> Twin(
      const DomainEvalFunction& warm) const {
    const std::string& id = warm.id();
    for (const CtaModelZoo* zoo : {sherlock.get(), doduo.get()}) {
      const std::string prefix = "cta:" + zoo->name() + ":";
      if (id.rfind(prefix, 0) != 0) continue;
      const std::vector<std::string>& types = zoo->type_names();
      auto type =
          std::find(types.begin(), types.end(), id.substr(prefix.size()));
      if (type == types.end()) break;
      return MakeCtaEval(zoo, static_cast<size_t>(type - types.begin()));
    }
    for (const embed::EmbeddingModel* model : {glove.get(), sbert.get()}) {
      const std::string prefix = "emb:" + model->name() + ":";
      if (id.rfind(prefix, 0) != 0) continue;
      return MakeEmbeddingEval(model, id.substr(prefix.size()));
    }
    return nullptr;
  }
};

void ExpectSameRows(const BackendRows& warm, const BackendRows& cold) {
  ASSERT_EQ(warm.width, cold.width);
  ASSERT_EQ(warm.ok, cold.ok);
  ASSERT_EQ(warm.data.size(), cold.data.size());
  for (size_t i = 0; i < warm.data.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(warm.data[i]),
              std::bit_cast<uint32_t>(cold.data[i]))
        << "row " << i / warm.width << " col " << i % warm.width;
  }
}

TEST(EvalFunctionTest, WarmBackendRowsMatchColdModels) {
  auto corpus = datagen::GenerateCorpus(datagen::RelationalTablesProfile(40));
  EvalFunctionSetOptions opt;
  opt.embedding_centroids_per_model = 5;
  auto set = EvalFunctionSet::Build(corpus, opt);
  const table::ColumnStore store = table::ColumnStore::FromCorpus(corpus);
  // Cap the probe set: parity over a prefix of the (distinct) pool is as
  // binding as the full pool and keeps the sweep over every eval function
  // fast.
  const std::span<const std::string_view> probe =
      store.pool().first(std::min<size_t>(store.pool().size(), 400));
  ASSERT_GT(probe.size(), 0u);
  const size_t n = probe.size();
  const metrics::Counter& misses =
      metrics::Registry::Global().GetCounter(metrics::kMRowCacheMisses);

  // Warm the shared models over the probe values.
  std::map<const void*, const DomainEvalFunction*> first_of;
  for (const auto& f : set.functions()) {
    if (f->backend() == nullptr) continue;
    if (first_of.try_emplace(f->backend(), f.get()).second) {
      BackendRows rows;
      f->ComputeBackendRows(probe, &rows, util::MemoWrite::kInsert);
    }
  }
  // Two zoos and two embedding models back the CTA and embedding families.
  ASSERT_EQ(first_of.size(), 4u);

  for (size_t block : {size_t{1}, size_t{37}, size_t{256}}) {
    SCOPED_TRACE("block=" + std::to_string(block));
    auto rows_by_block = [&](const DomainEvalFunction& f) {
      std::vector<BackendRows> rows;
      for (size_t off = 0; off < n; off += block) {
        rows.emplace_back();
        f.ComputeBackendRows(probe.subspan(off, std::min(block, n - off)),
                             &rows.back(), util::MemoWrite::kInsert);
      }
      return rows;
    };
    // Each backend's warm rows are read from its memo, every value a hit.
    std::map<const void*, std::vector<BackendRows>> warm_rows;
    const uint64_t misses_before_warm = misses.value();
    for (const auto& [backend, f] : first_of) {
      warm_rows[backend] = rows_by_block(*f);
    }
    EXPECT_EQ(misses.value() - misses_before_warm, 0u);

    // Fresh instances for each block size, so the cold rows are computed:
    // every value of the (distinct) probe is a miss on each cold model.
    const ColdModels cold;
    std::map<const void*, std::vector<BackendRows>> cold_rows;
    const uint64_t misses_before_cold = misses.value();
    for (const auto& [backend, f] : first_of) {
      const std::unique_ptr<DomainEvalFunction> twin = cold.Twin(*f);
      ASSERT_NE(twin, nullptr) << f->id();
      std::vector<BackendRows>& rows = cold_rows[twin->backend()];
      rows = rows_by_block(*twin);
      ASSERT_EQ(rows.size(), warm_rows[backend].size());
      for (size_t b = 0; b < rows.size(); ++b) {
        ExpectSameRows(warm_rows[backend][b], rows[b]);
      }
    }
    EXPECT_EQ(misses.value() - misses_before_cold, 4 * n);

    size_t functions_checked = 0;
    std::vector<double> from_warm(n);
    std::vector<double> from_cold(n);
    std::vector<double> scalar(n);
    for (const auto& f : set.functions()) {
      if (f->backend() == nullptr) continue;
      const std::unique_ptr<DomainEvalFunction> twin = cold.Twin(*f);
      ASSERT_NE(twin, nullptr) << f->id();
      ASSERT_EQ(twin->id(), f->id());
      const std::vector<BackendRows>& w = warm_rows.at(f->backend());
      const std::vector<BackendRows>& c = cold_rows.at(twin->backend());
      for (size_t off = 0; off < n; off += block) {
        const size_t len = std::min(block, n - off);
        f->DistanceFromRows(w[off / block],
                            std::span<double>(from_warm).subspan(off, len));
        twin->DistanceFromRows(c[off / block],
                               std::span<double>(from_cold).subspan(off, len));
      }
      for (size_t i = 0; i < n; ++i) scalar[i] = twin->Distance(probe[i]);
      ExpectSameBits(from_cold, from_warm, f->id() + " rows");
      ExpectSameBits(scalar, from_warm, f->id() + " scalar");
      ++functions_checked;
    }
    EXPECT_EQ(functions_checked,
              set.FamilyFunctions(Family::kCta).size() +
                  set.FamilyFunctions(Family::kEmbedding).size());
  }
}

// ---------------------------------------------------------------------------
// Golden bits. Every rule file is a function of the four shared models'
// rows and of the distances read from them, yet a change to either (a
// different centroid key, a reassociated distance sum) leaves every other
// test green. These pin exact 64-bit hashes of both over a fixed list of
// values: head and tail members, GloVe out-of-vocabulary strings, typos,
// the empty string, non-ASCII text and one value over 256 bytes. A kernel
// change that keeps the bits keeps the hashes; any other change must
// re-derive them on purpose.
// ---------------------------------------------------------------------------

std::vector<std::string> GoldenValues() {
  std::string long_value;
  while (long_value.size() <= 256) long_value += "lorem ipsum dolor sit amet ";
  return {"germany",   "seattle",     "january",    "france",
          "omayra",    "shakopee",    "fairmont",   "zz-unknown-string-42",
          "tt0054215", "liechstein",  "farimont",   "febuary",
          "",          "zürich",      "東京",       "café",
          "12/3/2020", "555-123-4567", "fl",         "Hello World",
          long_value};
}

// FNV-1a over raw bytes: independent of util/hashing.h, which the models
// themselves use.
struct GoldenHash {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  }
  void Rows(const BackendRows& rows) {
    Bytes(&rows.width, sizeof(rows.width));
    for (float x : rows.data) {
      const uint32_t bits = std::bit_cast<uint32_t>(x);
      Bytes(&bits, sizeof(bits));
    }
    Bytes(rows.ok.data(), rows.ok.size());
  }
  void Distances(std::span<const double> d) {
    for (double x : d) {
      const uint64_t bits = std::bit_cast<uint64_t>(x);
      Bytes(&bits, sizeof(bits));
    }
  }
};

TEST(GoldenBitsTest, SharedModelRowsAndDistances) {
  const std::vector<std::string> values = GoldenValues();
  const std::vector<std::string_view> views(values.begin(), values.end());
  const std::shared_ptr<CtaModelZoo> zoos[] = {SharedSherlockSim(),
                                              SharedDoduoSim()};
  const std::shared_ptr<embed::EmbeddingModel> models[] = {
      embed::SharedGloveSim(), embed::SharedSbertSim()};
  // Centroid values each embedding model can embed (GloVe: head only).
  const std::vector<std::string> centroids[] = {
      {"germany", "seattle", "january"},
      {"germany", "seattle", "january", "omayra", "zz-unknown-string-42"}};

  std::map<std::string, uint64_t> got;
  std::vector<double> dist(views.size());
  for (const auto& zoo : zoos) {
    GoldenHash rows_hash;
    GoldenHash dist_hash;
    for (size_t t = 0; t < zoo->num_types(); ++t) {
      const std::unique_ptr<DomainEvalFunction> f = MakeCtaEval(zoo.get(), t);
      BackendRows rows;
      f->ComputeBackendRows(views, &rows, util::MemoWrite::kInsert);
      if (t == 0) rows_hash.Rows(rows);
      f->DistanceFromRows(rows, dist);
      dist_hash.Distances(dist);
    }
    got["rows:" + zoo->name()] = rows_hash.h;
    got["dist:" + zoo->name()] = dist_hash.h;
  }
  for (size_t m = 0; m < 2; ++m) {
    const embed::EmbeddingModel* model = models[m].get();
    GoldenHash rows_hash;
    GoldenHash dist_hash;
    for (size_t c = 0; c < centroids[m].size(); ++c) {
      const std::unique_ptr<DomainEvalFunction> f =
          MakeEmbeddingEval(model, centroids[m][c]);
      BackendRows rows;
      f->ComputeBackendRows(views, &rows, util::MemoWrite::kInsert);
      if (c == 0) rows_hash.Rows(rows);
      f->DistanceFromRows(rows, dist);
      dist_hash.Distances(dist);
    }
    got["rows:" + model->name()] = rows_hash.h;
    got["dist:" + model->name()] = dist_hash.h;
  }

  const std::map<std::string, uint64_t> want = {
      {"rows:sherlock-sim", 0x1ae6d8e48dd7ca6fULL},
      {"dist:sherlock-sim", 0x8da1003ade140563ULL},
      {"rows:doduo-sim", 0xe87f320a8ba9944cULL},
      {"dist:doduo-sim", 0x06d64e02dd4ddf9fULL},
      {"rows:glove-sim", 0x217a52b5bbf94c1bULL},
      {"dist:glove-sim", 0xe918557119fe6c9aULL},
      {"rows:sbert-sim", 0x49bab48ae8cdaba1ULL},
      {"dist:sbert-sim", 0x831ceeff8360d304ULL},
  };
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [name, hash] : want) {
    EXPECT_EQ(got.at(name), hash)
        << name << " hashes to 0x" << std::hex << got.at(name);
  }
}

// The golden values plus `n` more: gazetteer head and tail members,
// machine-generated values and random strings of up to 40 bytes drawn
// from printable ASCII and the bytes of two UTF-8 letters.
std::vector<std::string> GeneratedValues(size_t n) {
  std::vector<std::string> values = GoldenValues();
  const size_t want = values.size() + n;
  const auto& domains = datagen::Gazetteer::Instance().domains();
  util::Rng rng(0x5ca1e);
  const std::string letters =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 -./,:@"
      "\xc3\xa9\xc3\xbc";
  const std::vector<char> alphabet(letters.begin(), letters.end());
  while (values.size() < want) {
    const datagen::Domain& d = rng.Pick(domains);
    switch (values.size() % 4) {
      case 0:
        if (!d.head.empty()) values.push_back(rng.Pick(d.head));
        break;
      case 1:
        if (!d.tail.empty()) values.push_back(rng.Pick(d.tail));
        break;
      case 2:
        if (d.has_generator()) values.push_back(d.generator(rng));
        break;
      default: {
        std::string v(static_cast<size_t>(rng.UniformInt(0, 40)), ' ');
        for (char& c : v) c = rng.Pick(alphabet);
        values.push_back(std::move(v));
      }
    }
  }
  return values;
}

// The CTA kernel against the dense loop it replaced: for both shipped
// zoos, scores computed cold (a fresh zoo, every value a miss) skip zero
// features yet equal the dense matmul's bit for bit.
TEST(KernelOracleTest, SparseScoringMatchesDenseLoop) {
  const std::vector<std::string> values = GeneratedValues(2000);
  const std::vector<std::string_view> views(values.begin(), values.end());
  const std::pair<CtaZooConfig, std::shared_ptr<CtaModelZoo>> zoos[] = {
      {SherlockSimConfig(), SharedSherlockSim()},
      {DoduoSimConfig(), SharedDoduoSim()}};
  for (const auto& [config, shipped] : zoos) {
    const std::unique_ptr<CtaModelZoo> zoo =
        CtaModelZoo::FromWeights(config, shipped->weights());
    const ml::FeatureExtractor extractor(config.feature_config);
    const size_t nt = zoo->num_types();
    std::vector<float> rows(views.size() * nt);
    for (size_t off = 0; off < views.size(); off += 256) {
      const size_t len = std::min<size_t>(256, views.size() - off);
      zoo->ScoreRows(std::span(views).subspan(off, len), &rows[off * nt],
                     util::MemoWrite::kInsert);
    }
    size_t mismatches = 0;
    for (size_t i = 0; i < views.size(); ++i) {
      const std::vector<float> want =
          oracle::DenseScoreAllTypes(extractor, zoo->weights(), views[i]);
      if (std::memcmp(want.data(), &rows[i * nt], nt * sizeof(float)) != 0) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << zoo->name();
  }
}

// ---------------------------------------------------------------------------
// The scoring plan the trainer and the predictor share.
// ---------------------------------------------------------------------------

// The first `n` distinct gazetteer head values `model` can embed.
std::vector<std::string> EmbeddableValues(const embed::EmbeddingModel& model,
                                          size_t n) {
  std::vector<std::string> out;
  embed::Vector tmp;
  for (const datagen::Domain& d : datagen::Gazetteer::Instance().domains()) {
    for (const std::string& v : d.head) {
      if (out.size() == n) return out;
      if (std::find(out.begin(), out.end(), v) == out.end() &&
          model.Embed(v, &tmp)) {
        out.push_back(v);
      }
    }
  }
  return out;
}

// A hand-ordered list that interleaves both zoos' CTA functions, eleven
// centroids of each embedding model (never two of one model in a row),
// and pattern and validator functions: the plan makes one source per
// backend in first-function order, computes each source's rows through
// its first function, groups each model's functions into runs of at
// most 8 in list order, gives every other function a run of its own and
// puts the functions without a backend last. ScoreSource's distances
// equal each function's own Distance bit for bit.
TEST(ScoringPlanTest, SourcesAndRunsFollowTheListAndScoreLikeDistance) {
  const std::shared_ptr<CtaModelZoo> sherlock = SharedSherlockSim();
  const std::shared_ptr<CtaModelZoo> doduo = SharedDoduoSim();
  const std::shared_ptr<embed::EmbeddingModel> glove = embed::SharedGloveSim();
  const std::shared_ptr<embed::EmbeddingModel> sbert = embed::SharedSbertSim();
  constexpr size_t kCentroids = 11;
  const std::vector<std::string> glove_centroids =
      EmbeddableValues(*glove, kCentroids);
  const std::vector<std::string> sbert_centroids =
      EmbeddableValues(*sbert, kCentroids);
  ASSERT_EQ(glove_centroids.size(), kCentroids);
  ASSERT_EQ(sbert_centroids.size(), kCentroids);
  const char* const patterns[] = {"[a-zA-Z]+\\d+", "\\d+", "[a-z]+ [a-z]+",
                                  "\\d+/\\d+/\\d+"};

  std::vector<std::unique_ptr<DomainEvalFunction>> owned;
  for (size_t k = 0; k < kCentroids; ++k) {
    owned.push_back(MakeCtaEval(sherlock.get(), k));
    owned.push_back(MakeEmbeddingEval(glove.get(), glove_centroids[k]));
    if (k % 3 == 0) {
      const std::optional<pattern::Pattern> p =
          pattern::Pattern::Parse(patterns[k / 3]);
      ASSERT_TRUE(p.has_value()) << patterns[k / 3];
      owned.push_back(MakePatternEval(*p));
    }
    owned.push_back(MakeCtaEval(doduo.get(), k));
    owned.push_back(MakeEmbeddingEval(sbert.get(), sbert_centroids[k]));
    if (k % 3 == 1) owned.push_back(MakeFunctionEval(AllValidators()[k / 3]));
  }
  std::vector<const DomainEvalFunction*> list;
  for (const auto& f : owned) list.push_back(f.get());
  const ScoringPlan plan = PlanScoring(list);
  ASSERT_EQ(plan.functions, list);

  // Backends in first-function order, then the backend-less source.
  const void* const backends[] = {sherlock.get(), glove.get(), doduo.get(),
                                  sbert.get()};
  ASSERT_EQ(plan.sources.size(), 5u);
  for (size_t s = 0; s < 4; ++s) {
    SCOPED_TRACE("source " + std::to_string(s));
    const ScoringPlan::Source& source = plan.sources[s];
    const size_t first = static_cast<size_t>(
        std::find_if(list.begin(), list.end(),
                     [&](const DomainEvalFunction* f) {
                       return f->backend() == backends[s];
                     }) -
        list.begin());
    EXPECT_EQ(source.rows, list[first]);
    EXPECT_EQ(source.runs.front().front(), first);
  }
  EXPECT_EQ(plan.sources.back().rows, nullptr);

  std::vector<size_t> times_planned(list.size(), 0);
  std::map<const void*, std::vector<size_t>> model_runs;  // concatenated
  for (const ScoringPlan::Source& source : plan.sources) {
    const void* backend =
        source.rows == nullptr ? nullptr : source.rows->backend();
    for (const ScoringPlan::Run& run : source.runs) {
      ASSERT_FALSE(run.empty());
      for (size_t i : run) {
        ++times_planned[i];
        EXPECT_EQ(list[i]->backend(), backend) << list[i]->id();
      }
      if (list[run[0]]->family() != Family::kEmbedding) {
        EXPECT_EQ(run.size(), 1u) << list[run[0]]->id();
        continue;
      }
      EXPECT_LE(run.size(), 8u);
      EXPECT_TRUE(std::is_sorted(run.begin(), run.end()));
      for (size_t i : run) {
        EXPECT_EQ(list[i]->family(), Family::kEmbedding) << list[i]->id();
      }
      model_runs[backend].insert(model_runs[backend].end(), run.begin(),
                                 run.end());
    }
  }
  EXPECT_EQ(times_planned, std::vector<size_t>(list.size(), 1));
  for (const void* model : {backends[1], backends[3]}) {
    std::vector<size_t> in_list_order;
    for (size_t i = 0; i < list.size(); ++i) {
      if (list[i]->backend() == model) in_list_order.push_back(i);
    }
    EXPECT_EQ(model_runs[model], in_list_order);
  }
  for (size_t s : {1, 3}) {  // eleven centroids: one run of 8, one of 3
    ASSERT_EQ(plan.sources[s].runs.size(), 2u);
    EXPECT_EQ(plan.sources[s].runs[0].size(), 8u);
  }

  // Each function's emitted distances against its own Distance, on a
  // probe block with values GloVe cannot embed.
  const std::vector<std::string> values = GeneratedValues(200);
  const std::vector<std::string_view> probe(values.begin(), values.end());
  BackendRows rows;
  std::vector<double> dist;
  std::vector<std::vector<double>> emitted(list.size());
  for (size_t s = 0; s < plan.sources.size(); ++s) {
    ScoreSource(plan, s, probe, util::MemoWrite::kReadOnly, &rows, &dist,
                [&](size_t i, std::span<const double> d) {
                  ASSERT_TRUE(emitted[i].empty()) << list[i]->id();
                  emitted[i].assign(d.begin(), d.end());
                });
    if (plan.sources[s].rows != nullptr &&
        plan.sources[s].rows->backend() == glove.get()) {
      EXPECT_TRUE(std::find(rows.ok.begin(), rows.ok.end(), 0) !=
                  rows.ok.end())
          << "the probe must hold values GloVe cannot embed";
    }
  }
  for (size_t i = 0; i < list.size(); ++i) {
    std::vector<double> want(probe.size());
    for (size_t v = 0; v < probe.size(); ++v) {
      want[v] = list[i]->Distance(probe[v]);
    }
    ExpectSameBits(emitted[i], want, list[i]->id());
  }
}

// The oracle for the weights the build compiles in, and the only test
// that trains a zoo: training each built-in config afresh must reproduce
// the shipped zoo's packed weights, biases and trained flags bit for bit.
TEST(SharedZooTest, ShippedWeightsEqualFreshTraining) {
  EXPECT_EQ(SharedSherlockSim().get(), SharedSherlockSim().get());
  EXPECT_EQ(SharedDoduoSim().get(), SharedDoduoSim().get());
  const std::pair<CtaZooConfig, std::shared_ptr<CtaModelZoo>> zoos[] = {
      {SherlockSimConfig(), SharedSherlockSim()},
      {DoduoSimConfig(), SharedDoduoSim()}};
  for (const auto& [config, shipped] : zoos) {
    SCOPED_TRACE(config.name);
    const std::unique_ptr<CtaModelZoo> fresh = CtaModelZoo::Train(config);
    EXPECT_EQ(shipped->name(), fresh->name());
    ASSERT_EQ(shipped->type_names(), fresh->type_names());
    ASSERT_EQ(shipped->feature_dim(), fresh->feature_dim());
    ExpectSameBits(fresh->weights().wt, shipped->weights().wt, "wt");
    ExpectSameBits(fresh->weights().biases, shipped->weights().biases,
                   "biases");
    EXPECT_EQ(fresh->weights().trained, shipped->weights().trained);
    for (const char* v : {"france", "seattle", "not-a-real-value"}) {
      EXPECT_EQ(ScoreRow(*fresh, v), ScoreRow(*shipped, v)) << v;
    }
  }
}

}  // namespace
}  // namespace autotest::typedet
