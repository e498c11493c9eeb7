#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "embed/embedding.h"
#include "embed/vector_math.h"

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
      bool embeddable = model->EmbedCached(values[i], &v);
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
