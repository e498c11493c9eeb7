#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "datagen/gazetteer.h"
#include "embed/embedding.h"
#include "embed/vector_math.h"
#include "kernel_oracles.h"
#include "util/metrics.h"
#include "util/row_cache.h"

namespace autotest::embed {
namespace {

constexpr util::MemoWrite kInsert = util::MemoWrite::kInsert;

TEST(VectorMathTest, EuclideanDistance) {
  const float rows[] = {0, 0, 1, 1};
  const float centroid[] = {3, 4};
  double dist[2];
  double* const out[] = {dist};
  GroupedDistances(rows, nullptr, 2, 2, centroid, 1, -1.0, out);
  EXPECT_DOUBLE_EQ(dist[0], 5.0);
  EXPECT_DOUBLE_EQ(dist[1], std::sqrt(13.0));
  const uint8_t ok[] = {1, 0};
  GroupedDistances(rows, ok, 2, 2, centroid, 1, -1.0, out);
  EXPECT_DOUBLE_EQ(dist[0], 5.0);
  EXPECT_DOUBLE_EQ(dist[1], -1.0);  // a row without a vector
}

TEST(VectorMathTest, NormalizeAndScale) {
  Vector v = {3, 4};
  Normalize(&v);
  EXPECT_NEAR(Norm(v), 1.0, 1e-6);
  Scale(&v, 2.0);
  EXPECT_NEAR(Norm(v), 2.0, 1e-6);
  Vector zero = {0, 0};
  Normalize(&zero);  // no-op, no NaN
  EXPECT_DOUBLE_EQ(zero[0], 0.0);
}

TEST(VectorMathTest, AddScaled) {
  Vector a = {1, 2};
  AddScaled(&a, {10, 10}, 0.5);
  EXPECT_FLOAT_EQ(a[0], 6.0f);
  EXPECT_FLOAT_EQ(a[1], 7.0f);
}

TEST(VectorMathTest, HashGaussianUnitProperties) {
  Vector a = HashGaussianUnit("country", 1, 64);
  Vector b = HashGaussianUnit("country", 1, 64);
  Vector c = HashGaussianUnit("city", 1, 64);
  EXPECT_EQ(a, b);  // deterministic
  EXPECT_NEAR(Norm(a), 1.0, 1e-5);
  // Different keys are near-orthogonal in high dimension.
  EXPECT_LT(std::fabs(Dot(a, c)), 0.5);
}

TEST(VectorMathTest, LexicalVectorTypoCorrelation) {
  Vector a = LexicalVector("february", 7, 64);
  Vector b = LexicalVector("febuary", 7, 64);
  Vector c = LexicalVector("zxqwkjv", 7, 64);
  EXPECT_GT(Dot(a, b), 0.5);
  EXPECT_GT(Dot(a, b), Dot(a, c));
}

TEST(GloveSimTest, HeadValuesInVocabulary) {
  auto glove = MakeGloveSim();
  Vector v;
  EXPECT_TRUE(glove->Embed("germany", &v));
  EXPECT_TRUE(glove->Embed("january", &v));
  EXPECT_TRUE(glove->Embed("seattle", &v));
  EXPECT_EQ(v.size(), glove->dim());
}

TEST(GloveSimTest, RareAndUnknownValuesAreOov) {
  // The paper's Example 2: "omayra" (a valid but uncommon name) is not in
  // GloVe's vocabulary.
  auto glove = MakeGloveSim();
  Vector v;
  EXPECT_FALSE(glove->Embed("omayra", &v));      // tail member
  EXPECT_FALSE(glove->Embed("liechstein", &v));  // typo
  EXPECT_FALSE(glove->Embed("tt0054215", &v));   // machine id
}

TEST(GloveSimTest, SameDomainCloserThanCrossDomain) {
  auto glove = MakeGloveSim();
  double same = glove->Distance("germany", "france");
  double cross = glove->Distance("germany", "january");
  EXPECT_LT(same, cross);
  double oov = glove->Distance("germany", "liechstein");
  EXPECT_DOUBLE_EQ(oov, glove->oov_distance());
  EXPECT_GT(oov, cross);
}

TEST(SbertSimTest, OpenVocabulary) {
  auto sbert = MakeSbertSim();
  Vector v;
  EXPECT_TRUE(sbert->Embed("omayra", &v));
  EXPECT_TRUE(sbert->Embed("zz-unknown-string-42", &v));
  EXPECT_TRUE(sbert->Embed("seattle", &v));
}

TEST(SbertSimTest, CalibrationGeometry) {
  // The Figure-4 geometry: head values cluster tightly around a head
  // centroid, tail values form a middle ring, errors land far out.
  auto sbert = MakeSbertSim();
  double head = sbert->Distance("seattle", "chicago");       // head-head
  double tail = sbert->Distance("seattle", "shakopee");      // head-tail
  double typo = sbert->Distance("seattle", "farimont");      // error
  double alien = sbert->Distance("seattle", "fy definition");  // metadata
  EXPECT_LT(head, tail);
  EXPECT_LT(tail, typo);
  EXPECT_LT(tail, alien);
}

TEST(SbertSimTest, TypoOfTailStillFar) {
  auto sbert = MakeSbertSim();
  // "farimont" is a typo of tail city "fairmont": still farther from the
  // city centroid region than the tail value itself.
  double tail = sbert->Distance("seattle", "fairmont");
  double typo = sbert->Distance("seattle", "farimont");
  EXPECT_LT(tail, typo);
}

TEST(SbertSimTest, CrossDomainFar) {
  auto sbert = MakeSbertSim();
  double same = sbert->Distance("january", "march");
  double cross = sbert->Distance("january", "red");
  EXPECT_LT(same, cross);
}

TEST(EmbeddingTest, Deterministic) {
  auto a = MakeSbertSim();
  auto b = MakeSbertSim();
  EXPECT_DOUBLE_EQ(a->Distance("seattle", "chicago"),
                   b->Distance("seattle", "chicago"));
}

// Mixed embeddable / OOV probe set. GloveSim has a closed vocabulary, so
// "zqxv-not-a-word" and tail-ish strings exercise the ok == 0 rows.
std::vector<std::string> BlockProbeValues() {
  return {"seattle", "zqxv-not-a-word", "chicago", "", "france",
          "12345",   "seattle"};
}

TEST(EmbeddingTest, BlockCachedMatchesPerValueEmbed) {
  for (auto maker : {MakeGloveSim, MakeSbertSim}) {
    auto model = maker(0x1ab);
    const std::vector<std::string> values = BlockProbeValues();
    std::vector<std::string_view> views(values.begin(), values.end());
    const size_t d = model->dim();
    std::vector<float> rows(views.size() * d);
    std::vector<uint8_t> ok(views.size());
    model->EmbedBlockCached(views, rows.data(), ok.data(), kInsert);
    for (size_t i = 0; i < values.size(); ++i) {
      Vector v;
      bool embeddable = model->Embed(values[i], &v);
      ASSERT_EQ(ok[i] != 0, embeddable) << model->name() << " " << values[i];
      if (embeddable) {
        ASSERT_EQ(v.size(), d);
        for (size_t j = 0; j < d; ++j) {
          EXPECT_EQ(rows[i * d + j], v[j]) << values[i];  // bit-identical
        }
      } else {
        for (size_t j = 0; j < d; ++j) EXPECT_EQ(rows[i * d + j], 0.0f);
      }
    }
  }
}

// A few hundred distinct values: head members of every gazetteer domain
// (in GloVe's vocabulary), tail members (mostly outside it) and strings no
// domain holds.
std::vector<std::string> ManyProbeValues() {
  std::set<std::string> values;
  for (const auto& domain : datagen::Gazetteer::Instance().domains()) {
    for (size_t i = 0; i < domain.head.size() && i < 4; ++i) {
      values.insert(domain.head[i]);
    }
    for (size_t i = 0; i < domain.tail.size() && i < 2; ++i) {
      values.insert(domain.tail[i]);
    }
  }
  for (int i = 0; i < 100; ++i) values.insert("probe-" + std::to_string(i));
  return {values.begin(), values.end()};
}

// A test model with 16 KiB rows, so a few thousand values fill a memo's
// byte bound. A value's row is a pure function of the value, and values
// starting with "oov" have none, like words outside GloVe's vocabulary.
class WideModel : public EmbeddingModel {
 public:
  const std::string& name() const override {
    static const std::string& n = *new std::string("wide-test");
    return n;
  }
  size_t dim() const override { return 4096; }
  double oov_distance() const override { return 1.0; }
  bool Embed(const std::string& value, Vector* out) const override {
    if (value.rfind("oov", 0) == 0) return false;
    out->resize(dim());
    uint64_t h = std::hash<std::string>{}(value);
    for (float& x : *out) {
      h = h * 6364136223846793005ULL + 1442695040888963407ULL;
      x = static_cast<float>(h >> 40) / 16777216.0f;
    }
    return true;
  }
};

std::unique_ptr<EmbeddingModel> MakeWideModel(uint64_t /*seed*/) {
  return std::make_unique<WideModel>();
}

// The i-th distinct value for the wide model. Keys have one length, so
// every record takes the same room; with `oov`, one value in eight has
// no row.
std::string WideValue(size_t i, bool oov) {
  std::string digits = std::to_string(i);
  digits.insert(0, 8 - digits.size(), '0');
  return (oov && i % 8 == 5 ? "oov-" : "row-") + digits;
}

std::vector<std::string> WideValues(size_t n, bool oov) {
  std::vector<std::string> values;
  for (size_t i = 0; i < n; ++i) values.push_back(WideValue(i, oov));
  return values;
}

// Values with rows a fresh wide model memoizes, filled one per call in
// order, before its memo first clears: what its byte bound holds.
size_t WideCapacity() {
  const metrics::Counter& clears =
      metrics::Registry::Global().GetCounter(metrics::kMRowCacheClears);
  WideModel model;
  std::vector<float> row(model.dim());
  uint8_t ok = 0;
  const uint64_t clears0 = clears.value();
  for (size_t n = 0;; ++n) {
    const std::string value = WideValue(n, /*oov=*/false);
    const std::string_view view = value;
    model.EmbedBlockCached({&view, 1}, row.data(), &ok, kInsert);
    if (clears.value() != clears0) return n;
  }
}

// Expects `rows`/`ok` of values[index[r]] to equal what the uncached
// Embed of `reference` computes; returns the number of mismatches.
size_t CountMismatches(const EmbeddingModel& reference,
                       const std::vector<std::string>& values,
                       const std::vector<size_t>& index,
                       const std::vector<float>& rows,
                       const std::vector<uint8_t>& ok) {
  const size_t d = reference.dim();
  size_t mismatches = 0;
  Vector want;
  for (size_t r = 0; r < index.size(); ++r) {
    const bool embeddable = reference.Embed(values[index[r]], &want);
    if (!embeddable) want.assign(d, 0.0f);
    if ((ok[r] != 0) != embeddable ||
        std::memcmp(&rows[r * d], want.data(), d * sizeof(float)) != 0) {
      ++mismatches;
    }
  }
  return mismatches;
}

// Four threads fill overlapping blocks of one fresh model's memo at once,
// each starting at its own offset and wrapping around, twice (the second
// pass reads what the threads inserted). Every row and flag must equal
// the uncached Embed of a model of its own. The wide model's values
// overflow its memo's byte bound about twice over, so its threads also
// fill, read and insert across clears.
TEST(EmbeddingTest, ConcurrentFillsMatchSingleThreadRows) {
  const metrics::Counter& clears =
      metrics::Registry::Global().GetCounter(metrics::kMRowCacheClears);
  const size_t wide_values = 2 * WideCapacity() + 100;
  for (auto maker : {MakeGloveSim, MakeSbertSim, MakeWideModel}) {
    const bool wide = maker == MakeWideModel;
    const std::vector<std::string> values =
        wide ? WideValues(wide_values, /*oov=*/true) : ManyProbeValues();
    const std::vector<std::string_view> views(values.begin(), values.end());
    const size_t n = views.size();
    auto reference = maker(0x2cd);
    const size_t d = reference->dim();

    auto model = maker(0x2cd);
    const uint64_t clears0 = clears.value();
    constexpr size_t kThreads = 4;
    constexpr size_t kBlock = 37;
    std::vector<size_t> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::vector<size_t> index;
        std::vector<std::string_view> block;
        std::vector<float> rows;
        std::vector<uint8_t> ok;
        for (size_t pass = 0; pass < 2; ++pass) {
          for (size_t start = 0; start < n; start += kBlock) {
            index.clear();
            block.clear();
            for (size_t k = start; k < std::min(n, start + kBlock); ++k) {
              index.push_back((k + t * n / kThreads) % n);
              block.push_back(views[index.back()]);
            }
            rows.assign(block.size() * d, -1.0f);
            ok.assign(block.size(), 2);
            model->EmbedBlockCached(block, rows.data(), ok.data(), kInsert);
            mismatches[t] +=
                CountMismatches(*reference, values, index, rows, ok);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(mismatches[t], 0u) << model->name() << " thread " << t;
    }
    if (wide) {
      EXPECT_GE(clears.value() - clears0, 2u);
    }
  }
}

// The byte bound on a fresh model: filling one value at a time past the
// bound clears the memo every `capacity` values exactly, since a clear
// keeps the slab's chunks and the index and the next fill reuses them;
// `row_cache.bytes` never passes the bound and drops back when the model
// goes; and rows read after a clear, hits and recomputed misses alike,
// equal cold rows.
TEST(EmbeddingTest, MemoStaysWithinItsByteBound) {
  const metrics::Counter& clears =
      metrics::Registry::Global().GetCounter(metrics::kMRowCacheClears);
  const metrics::Gauge& bytes =
      metrics::Registry::Global().GetGauge(metrics::kMRowCacheBytes);
  const size_t capacity = WideCapacity();
  // The slab's chunk slack and the index take well under half the bound.
  ASSERT_GT(capacity * 4096 * sizeof(float), util::RowCache::kMaxBytes / 2);

  const std::vector<std::string> values =
      WideValues(3 * capacity + 10, /*oov=*/false);
  const double bytes0 = bytes.value();
  const uint64_t clears0 = clears.value();
  {
    WideModel model;
    const size_t d = model.dim();
    std::vector<float> row(d);
    uint8_t ok = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      const std::string_view view = values[i];
      model.EmbedBlockCached({&view, 1}, row.data(), &ok, kInsert);
      ASSERT_EQ(clears.value() - clears0, i / capacity) << "value " << i;
      ASSERT_LE(bytes.value() - bytes0,
                static_cast<double>(util::RowCache::kMaxBytes));
    }
    EXPECT_EQ(clears.value() - clears0, 3u);

    // After the third clear the memo holds the last 10 values: they hit,
    // the values before them miss and are computed again, and every row
    // equals a cold model's.
    const metrics::Counter& hits =
        metrics::Registry::Global().GetCounter(metrics::kMRowCacheHits);
    const size_t n = 40;
    std::vector<std::string_view> views;
    std::vector<size_t> index;
    for (size_t i = values.size() - n; i < values.size(); ++i) {
      views.push_back(values[i]);
      index.push_back(i);
    }
    std::vector<float> rows(n * d);
    std::vector<uint8_t> oks(n);
    const uint64_t hits0 = hits.value();
    model.EmbedBlockCached(views, rows.data(), oks.data(), kInsert);
    EXPECT_EQ(hits.value() - hits0, 10u);
    const WideModel cold;
    EXPECT_EQ(CountMismatches(cold, values, index, rows, oks), 0u);
    std::vector<float> cold_rows(n * d);
    std::vector<uint8_t> cold_oks(n);
    WideModel().EmbedBlockCached(views, cold_rows.data(), cold_oks.data(),
                                 kInsert);
    EXPECT_EQ(rows, cold_rows);
    EXPECT_EQ(oks, cold_oks);
  }
  EXPECT_EQ(bytes.value(), bytes0);
}

// The grouped distance kernel against the scalar loop it replaced, at
// group sizes 1, 3 and 8 and blocks of 1, 37 and 256 rows: every distance
// bit-identical, and rows without a vector (GloVe OOV) at the OOV
// distance.
TEST(EmbeddingTest, GroupedDistancesMatchScalarLoop) {
  std::vector<std::string> values = ManyProbeValues();
  while (values.size() < 600) {
    values.push_back("pad-" + std::to_string(values.size()));
  }
  const std::vector<std::string_view> views(values.begin(), values.end());
  const size_t n = views.size();
  for (auto maker : {MakeGloveSim, MakeSbertSim}) {
    auto model = maker(0x4ab);
    const size_t d = model->dim();
    std::vector<float> rows(n * d);
    std::vector<uint8_t> ok(n);
    model->EmbedBlockCached(views, rows.data(), ok.data(), kInsert);
    ASSERT_GT(std::count(ok.begin(), ok.end(), 1), 8);
    if (maker == MakeGloveSim) {
      ASSERT_GT(std::count(ok.begin(), ok.end(), 0), 0);
    }
    // Centroids: the vectors of the first eight embeddable values.
    std::vector<const float*> centroid;
    for (size_t i = 0; i < n && centroid.size() < kMaxCentroidGroup; ++i) {
      if (ok[i] != 0) centroid.push_back(&rows[i * d]);
    }
    const double oov = model->oov_distance();
    for (size_t k : {size_t{1}, size_t{3}, size_t{8}}) {
      std::vector<float> packed(d * k);
      for (size_t j = 0; j < d; ++j) {
        for (size_t c = 0; c < k; ++c) packed[j * k + c] = centroid[c][j];
      }
      for (size_t block : {size_t{1}, size_t{37}, size_t{256}}) {
        std::vector<std::vector<double>> got(k, std::vector<double>(n));
        std::vector<double*> out(k);
        for (size_t off = 0; off < n; off += block) {
          for (size_t c = 0; c < k; ++c) out[c] = got[c].data() + off;
          GroupedDistances(&rows[off * d], &ok[off], std::min(block, n - off),
                           d, packed.data(), k, oov, out.data());
        }
        size_t mismatches = 0;
        for (size_t c = 0; c < k; ++c) {
          for (size_t i = 0; i < n; ++i) {
            const double want =
                ok[i] != 0
                    ? oracle::EuclideanDistanceRaw(&rows[i * d], centroid[c], d)
                    : oov;
            if (std::memcmp(&got[c][i], &want, sizeof(double)) != 0) {
              ++mismatches;
            }
          }
        }
        EXPECT_EQ(mismatches, 0u)
            << model->name() << " k=" << k << " block=" << block;
      }
    }
  }
}

// The memo's counters: a block of n distinct values new to a fresh model
// adds n misses, and the same block again adds n hits.
TEST(EmbeddingTest, MemoCountsHitsAndMisses) {
  const metrics::Counter& hits =
      metrics::Registry::Global().GetCounter(metrics::kMRowCacheHits);
  const metrics::Counter& misses =
      metrics::Registry::Global().GetCounter(metrics::kMRowCacheMisses);
  const std::vector<std::string> values = ManyProbeValues();
  const std::vector<std::string_view> views(values.begin(), values.end());
  const uint64_t n = views.size();
  for (auto maker : {MakeGloveSim, MakeSbertSim}) {
    auto model = maker(0x3ef);
    std::vector<float> rows(views.size() * model->dim());
    std::vector<uint8_t> ok(views.size());
    const uint64_t hits0 = hits.value();
    const uint64_t misses0 = misses.value();
    model->EmbedBlockCached(views, rows.data(), ok.data(), kInsert);
    EXPECT_EQ(misses.value() - misses0, n) << model->name();
    EXPECT_EQ(hits.value() - hits0, 0u) << model->name();
    model->EmbedBlockCached(views, rows.data(), ok.data(), kInsert);
    EXPECT_EQ(misses.value() - misses0, n) << model->name();
    EXPECT_EQ(hits.value() - hits0, n) << model->name();
  }
}

// A read-only block call reads the memo and inserts nothing: its misses
// stay misses, the memo's bytes do not move, and its rows equal the
// inserting call's.
TEST(EmbeddingTest, ReadOnlyCallsInsertNothing) {
  const metrics::Counter& hits =
      metrics::Registry::Global().GetCounter(metrics::kMRowCacheHits);
  const metrics::Counter& misses =
      metrics::Registry::Global().GetCounter(metrics::kMRowCacheMisses);
  const metrics::Gauge& bytes =
      metrics::Registry::Global().GetGauge(metrics::kMRowCacheBytes);
  const std::vector<std::string> values = ManyProbeValues();
  const std::vector<std::string_view> views(values.begin(), values.end());
  const uint64_t n = views.size();
  for (auto maker : {MakeGloveSim, MakeSbertSim}) {
    auto model = maker(0x3f0);
    std::vector<float> read_rows(views.size() * model->dim());
    std::vector<uint8_t> read_ok(views.size());
    const uint64_t hits0 = hits.value();
    const uint64_t misses0 = misses.value();
    const double bytes0 = bytes.value();
    for (int pass = 0; pass < 2; ++pass) {
      model->EmbedBlockCached(views, read_rows.data(), read_ok.data(),
                              util::MemoWrite::kReadOnly);
    }
    EXPECT_EQ(misses.value() - misses0, 2 * n) << model->name();
    EXPECT_EQ(hits.value() - hits0, 0u) << model->name();
    EXPECT_EQ(bytes.value(), bytes0) << model->name();

    std::vector<float> rows(views.size() * model->dim());
    std::vector<uint8_t> ok(views.size());
    model->EmbedBlockCached(views, rows.data(), ok.data(), kInsert);
    EXPECT_EQ(rows, read_rows) << model->name();
    EXPECT_EQ(ok, read_ok) << model->name();
    // Warm now, a read-only call hits every value.
    model->EmbedBlockCached(views, read_rows.data(), read_ok.data(),
                            util::MemoWrite::kReadOnly);
    EXPECT_EQ(hits.value() - hits0, n) << model->name();
    EXPECT_EQ(read_rows, rows) << model->name();
  }
}

TEST(EmbeddingTest, SharedModelsAreProcessSingletons) {
  EXPECT_EQ(SharedGloveSim().get(), SharedGloveSim().get());
  EXPECT_EQ(SharedSbertSim().get(), SharedSbertSim().get());
  // Shared instances embed exactly like fresh default-seed models.
  auto fresh = MakeSbertSim();
  EXPECT_DOUBLE_EQ(SharedSbertSim()->Distance("seattle", "chicago"),
                   fresh->Distance("seattle", "chicago"));
}

}  // namespace
}  // namespace autotest::embed
