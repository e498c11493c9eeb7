#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "datagen/gazetteer.h"
#include "embed/embedding.h"
#include "embed/vector_math.h"
#include "util/metrics.h"

namespace autotest::embed {
namespace {

TEST(VectorMathTest, EuclideanDistance) {
  EXPECT_DOUBLE_EQ(EuclideanDistance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance({1, 1}, {1, 1}), 0.0);
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
    model->EmbedBlockCached(views, rows.data(), ok.data());
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

// Four threads fill overlapping blocks of one fresh model's memo at once,
// each starting at its own offset and wrapping around, twice (the second
// pass reads what the threads inserted). Every row and flag must equal
// the rows one thread computes on a model of its own.
TEST(EmbeddingTest, ConcurrentFillsMatchSingleThreadRows) {
  const std::vector<std::string> values = ManyProbeValues();
  const std::vector<std::string_view> views(values.begin(), values.end());
  const size_t n = views.size();
  for (auto maker : {MakeGloveSim, MakeSbertSim}) {
    auto reference = maker(0x2cd);
    const size_t d = reference->dim();
    std::vector<float> want(n * d);
    std::vector<uint8_t> want_ok(n);
    reference->EmbedBlockCached(views, want.data(), want_ok.data());

    auto model = maker(0x2cd);
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
            model->EmbedBlockCached(block, rows.data(), ok.data());
            for (size_t r = 0; r < block.size(); ++r) {
              const size_t i = index[r];
              if (ok[r] != want_ok[i] ||
                  std::memcmp(&rows[r * d], &want[i * d],
                              d * sizeof(float)) != 0) {
                ++mismatches[t];
              }
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(mismatches[t], 0u) << model->name() << " thread " << t;
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
    model->EmbedBlockCached(views, rows.data(), ok.data());
    EXPECT_EQ(misses.value() - misses0, n) << model->name();
    EXPECT_EQ(hits.value() - hits0, 0u) << model->name();
    model->EmbedBlockCached(views, rows.data(), ok.data());
    EXPECT_EQ(misses.value() - misses0, n) << model->name();
    EXPECT_EQ(hits.value() - hits0, n) << model->name();
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
