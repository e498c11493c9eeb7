// Property-based tests over the generator/validator/metric invariants,
// using parameterized gtest sweeps.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <string>

#include "core/sdc.h"
#include "core/selection.h"
#include "core/trainer.h"
#include "datagen/column_gen.h"
#include "datagen/corpus_gen.h"
#include "datagen/gazetteer.h"
#include "eval/metrics.h"
#include "pattern/pattern.h"
#include "reference_trainer.h"
#include "stats/statistics.h"
#include "typedet/eval_functions.h"
#include "typedet/validators.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace autotest {
namespace {

// ---------------------------------------------------------------------------
// Property: every value a machine generator emits passes the matching
// validation function (validators and generators agree on the formats).
// ---------------------------------------------------------------------------

struct DomainValidator {
  const char* domain;
  bool (*validate)(std::string_view);
};

class GeneratorValidatorTest
    : public ::testing::TestWithParam<DomainValidator> {};

TEST_P(GeneratorValidatorTest, GeneratedValuesValidate) {
  const auto& p = GetParam();
  const datagen::Domain* d = datagen::Gazetteer::Instance().Find(p.domain);
  ASSERT_NE(d, nullptr);
  ASSERT_TRUE(d->has_generator());
  util::Rng rng(0xabc);
  for (int i = 0; i < 300; ++i) {
    std::string v = d->generator(rng);
    EXPECT_TRUE(p.validate(v)) << p.domain << ": " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMachineDomains, GeneratorValidatorTest,
    ::testing::Values(
        DomainValidator{"date_mdy", &typedet::ValidateDate},
        DomainValidator{"date_iso", &typedet::ValidateDate},
        DomainValidator{"time_hm", &typedet::ValidateTime},
        DomainValidator{"datetime_iso", &typedet::ValidateDateTime},
        DomainValidator{"url", &typedet::ValidateUrl},
        DomainValidator{"email", &typedet::ValidateEmail},
        DomainValidator{"ipv4", &typedet::ValidateIpv4},
        DomainValidator{"uuid", &typedet::ValidateUuid},
        DomainValidator{"credit_card", &typedet::ValidateCreditCard},
        DomainValidator{"upc", &typedet::ValidateUpc},
        DomainValidator{"isbn13", &typedet::ValidateIsbn13},
        DomainValidator{"phone_us", &typedet::ValidatePhoneUs},
        DomainValidator{"percent", &typedet::ValidatePercent},
        DomainValidator{"hex_color", &typedet::ValidateHexColor},
        DomainValidator{"mac_address", &typedet::ValidateMacAddress},
        DomainValidator{"web_domain", &typedet::ValidateWebDomain},
        DomainValidator{"iban", &typedet::ValidateIban},
        DomainValidator{"version_number", &typedet::ValidateVersion},
        DomainValidator{"lat_lon", &typedet::ValidateLatLon}),
    [](const ::testing::TestParamInfo<DomainValidator>& info) {
      return info.param.domain;
    });

// ---------------------------------------------------------------------------
// Property: every generated value matches its own pattern generalization,
// at both levels, across every domain.
// ---------------------------------------------------------------------------

class GeneralizationTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GeneralizationTest, SelfMatch) {
  const datagen::Domain* d =
      datagen::Gazetteer::Instance().Find(GetParam());
  ASSERT_NE(d, nullptr);
  util::Rng rng(0x123);
  datagen::ColumnGenOptions opt;
  opt.min_values = 60;
  opt.max_values = 60;
  table::Column col = datagen::GenerateColumn(*d, opt, rng);
  for (const auto& v : col.values) {
    EXPECT_TRUE(pattern::Generalize(
                    v, pattern::GeneralizationLevel::kExactDigits)
                    .Matches(v))
        << v;
    EXPECT_TRUE(
        pattern::Generalize(v, pattern::GeneralizationLevel::kGeneral)
            .Matches(v))
        << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SampledDomains, GeneralizationTest,
    ::testing::Values("country", "city_us", "first_name", "date_mdy", "url",
                      "email", "gene", "article_number", "money_usd",
                      "percent", "phone_us", "age_range"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ---------------------------------------------------------------------------
// Property: PR-curve invariants hold on random prediction sets.
// ---------------------------------------------------------------------------

class PrCurvePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrCurvePropertyTest, Invariants) {
  util::Rng rng(GetParam());
  std::vector<eval::ScoredPrediction> preds;
  size_t total_true = 40;
  for (int i = 0; i < 300; ++i) {
    eval::ScoredPrediction p;
    p.score = rng.UniformDouble();
    p.is_true_error = rng.Bernoulli(0.1);
    preds.push_back(p);
  }
  size_t hits = 0;
  for (const auto& p : preds) {
    if (p.is_true_error) ++hits;
  }
  total_true = std::max(total_true, hits);
  eval::PrCurve curve = eval::ComputePrCurve(preds, total_true);
  double prev_recall = 0.0;
  double prev_threshold = 2.0;
  for (const auto& pt : curve.points) {
    EXPECT_GE(pt.recall, prev_recall - 1e-12);   // recall non-decreasing
    EXPECT_LT(pt.threshold, prev_threshold);      // thresholds descending
    EXPECT_GE(pt.precision, 0.0);
    EXPECT_LE(pt.precision, 1.0);
    prev_recall = pt.recall;
    prev_threshold = pt.threshold;
  }
  EXPECT_GE(curve.auc, 0.0);
  EXPECT_LE(curve.auc, 1.0 + 1e-12);
  EXPECT_LE(eval::F1AtPrecision(curve, 0.8), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrCurvePropertyTest,
                         ::testing::Range<uint64_t>(1, 16));

// ---------------------------------------------------------------------------
// Property: Wilson lower bound never exceeds the raw proportion and grows
// with evidence.
// ---------------------------------------------------------------------------

class WilsonPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(WilsonPropertyTest, LowerBoundBelowRatio) {
  int trials = GetParam();
  for (int successes = 0; successes <= trials; ++successes) {
    double lb = stats::WilsonLowerBound(successes, trials, 1.65);
    double ratio = static_cast<double>(successes) / trials;
    EXPECT_LE(lb, ratio + 1e-12);
    EXPECT_GE(lb, 0.0);
    // More evidence at the same proportion tightens the bound.
    double lb10 = stats::WilsonLowerBound(successes * 10, trials * 10, 1.65);
    EXPECT_GE(lb10, lb - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(TrialCounts, WilsonPropertyTest,
                         ::testing::Values(1, 2, 5, 10, 50, 200));

// ---------------------------------------------------------------------------
// Property: pre-condition monotonicity — growing the inner ball or
// loosening m can only keep/extend coverage.
// ---------------------------------------------------------------------------

class PreconditionMonotoneTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(PreconditionMonotoneTest, Monotone) {
  util::Rng rng(GetParam());
  core::ColumnDistanceProfile profile;
  size_t n = 30;
  double acc = 0.0;
  size_t wacc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += rng.UniformDouble(0.0, 0.2);
    size_t w = static_cast<size_t>(rng.UniformInt(1, 5));
    profile.sorted_distances.push_back(acc);
    profile.sorted_weights.push_back(w);
    wacc += w;
    profile.prefix_weights.push_back(wacc);
  }
  profile.total_weight = wacc;
  for (int trial = 0; trial < 50; ++trial) {
    double d1 = rng.UniformDouble(0.0, acc);
    double d2 = rng.UniformDouble(d1, acc);
    double m1 = rng.UniformDouble(0.0, 1.0);
    double m2 = rng.UniformDouble(0.0, m1);
    if (profile.PreconditionHolds(d1, m1)) {
      EXPECT_TRUE(profile.PreconditionHolds(d2, m1));  // bigger ball
      EXPECT_TRUE(profile.PreconditionHolds(d1, m2));  // looser m
    }
    EXPECT_EQ(profile.CountWithin(d1) + profile.CountBeyond(d1),
              profile.total_weight);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreconditionMonotoneTest,
                         ::testing::Range<uint64_t>(1, 11));

// ---------------------------------------------------------------------------
// Property: training is deterministic in the thread count. The parallel
// runtime writes per-function results to per-index slots and merges them
// in index order, so the trained model — constraints, calibrated
// confidences, detection lists — must be byte-identical for any
// num_threads. Exact (==) comparison on every double is intentional.
// ---------------------------------------------------------------------------

void ExpectSameModel(const core::TrainedModel& a,
                     const core::TrainedModel& b) {
  ASSERT_EQ(a.constraints.size(), b.constraints.size());
  ASSERT_EQ(a.detections.size(), b.detections.size());
  EXPECT_EQ(a.num_synthetic, b.num_synthetic);
  EXPECT_EQ(a.candidates_enumerated, b.candidates_enumerated);
  EXPECT_EQ(a.candidates_pruned, b.candidates_pruned);
  EXPECT_EQ(a.candidates_rejected, b.candidates_rejected);
  for (size_t i = 0; i < a.constraints.size(); ++i) {
    const core::Sdc& x = a.constraints[i];
    const core::Sdc& y = b.constraints[i];
    EXPECT_EQ(x.eval_index, y.eval_index) << i;
    EXPECT_EQ(x.d_in, y.d_in) << i;
    EXPECT_EQ(x.d_out, y.d_out) << i;
    EXPECT_EQ(x.m, y.m) << i;
    EXPECT_EQ(x.confidence, y.confidence) << i;
    EXPECT_EQ(x.fpr, y.fpr) << i;
    EXPECT_EQ(x.cohens_h, y.cohens_h) << i;
    EXPECT_EQ(x.chi_squared_p, y.chi_squared_p) << i;
    EXPECT_EQ(x.contingency.covered_triggered,
              y.contingency.covered_triggered)
        << i;
    EXPECT_EQ(x.contingency.covered_not_triggered,
              y.contingency.covered_not_triggered)
        << i;
    EXPECT_EQ(a.detections[i], b.detections[i]) << i;
  }
  EXPECT_EQ(a.synthetic_conf_all, b.synthetic_conf_all);
}

TEST(TrainingDeterminismTest, IdenticalModelAcrossThreadCounts) {
  auto corpus =
      datagen::GenerateCorpus(datagen::RelationalTablesProfile(150));
  typedet::EvalFunctionSetOptions eval_opt;
  eval_opt.embedding_centroids_per_model = 20;
  auto evals = typedet::EvalFunctionSet::Build(corpus, eval_opt);

  core::TrainOptions topt;
  topt.synthetic_count = 200;

  topt.num_threads = 1;
  core::TrainedModel m1 = core::TrainAutoTest(corpus, evals, topt);
  topt.num_threads = 2;
  core::TrainedModel m2 = core::TrainAutoTest(corpus, evals, topt);
  topt.num_threads = 8;
  core::TrainedModel m8 = core::TrainAutoTest(corpus, evals, topt);

  ASSERT_GT(m1.constraints.size(), 0u);
  ExpectSameModel(m1, m2);
  ExpectSameModel(m1, m8);

  // Selection consumes only per-rule slots, so it is thread-count
  // invariant too.
  core::SelectionOptions sopt;
  sopt.num_threads = 1;
  auto s1 = core::FineSelect(m1, sopt);
  sopt.num_threads = 8;
  auto s8 = core::FineSelect(m8, sopt);
  EXPECT_EQ(s1.selected, s8.selected);
  EXPECT_EQ(s1.lp_objective, s8.lp_objective);
}

// An eval function that deliberately has NO BatchDistance override, so the
// trainer's columnar path must route it through the base-class fallback
// loop (scalar Distance per value). Deterministic and cheap: the share of
// digit characters separates numeric-looking values from words, so the
// family trains rules of its own.
class ScalarOnlyEval : public typedet::DomainEvalFunction {
 public:
  ScalarOnlyEval()
      : DomainEvalFunction("test:scalar-only", typedet::Family::kFunction) {}

  double Distance(const std::string& value) const override {
    if (value.empty()) return 0.0;
    size_t digits = static_cast<size_t>(
        std::count_if(value.begin(), value.end(),
                      [](unsigned char ch) { return std::isdigit(ch); }));
    return static_cast<double>(digits) / static_cast<double>(value.size());
  }
  double min_distance() const override { return 0.0; }
  double max_distance() const override { return 1.0; }
  std::string Describe() const override { return "scalar-only test eval"; }
};

// The columnar trainer (DESIGN.md §4k) must produce a model byte-identical
// to the scalar reference trainer in tests/reference_trainer.cc, which is
// written from the paper's definitions: distinct counts weight the same
// threshold grids, BatchDistance overrides are bit-identical to Distance,
// and detection order is preserved. Swept over thread counts, with a
// registered eval function that lacks a BatchDistance override so the
// base-class fallback is exercised alongside the vectorized families.
TEST(TrainingDeterminismTest, ColumnarPathMatchesScalarReference) {
  auto corpus =
      datagen::GenerateCorpus(datagen::RelationalTablesProfile(800));
  typedet::EvalFunctionSetOptions eval_opt;
  eval_opt.embedding_centroids_per_model = 15;
  auto evals = typedet::EvalFunctionSet::Build(corpus, eval_opt);
  evals.Add(std::make_unique<ScalarOnlyEval>());

  core::TrainOptions topt;
  topt.synthetic_count = 200;
  core::TrainedModel reference =
      core::ReferenceTrainAutoTest(corpus, evals, topt);
  ASSERT_GE(reference.constraints.size(), 1000u);
  const size_t scalar_only = evals.size() - 1;
  EXPECT_TRUE(std::any_of(
      reference.constraints.begin(), reference.constraints.end(),
      [&](const core::Sdc& r) { return r.eval_index == scalar_only; }));

  for (int threads : {1, 2, 8}) {
    topt.num_threads = threads;
    core::TrainedModel columnar = core::TrainAutoTest(corpus, evals, topt);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameModel(reference, columnar);
  }
}

TEST(TrainingDeterminismTest, TransientFaultsYieldByteIdenticalModel) {
  // A run whose injected trainer.eval faults are all transient — every
  // family recovers within the retry budget — must produce a model
  // byte-identical to the fault-free run, at any thread count. Retries
  // are pure re-execution; nothing about them may leak into the output.
  auto corpus =
      datagen::GenerateCorpus(datagen::RelationalTablesProfile(150));
  typedet::EvalFunctionSetOptions eval_opt;
  eval_opt.embedding_centroids_per_model = 20;
  auto evals = typedet::EvalFunctionSet::Build(corpus, eval_opt);

  core::TrainOptions topt;
  topt.synthetic_count = 200;
  topt.eval_retry_attempts = 8;  // ample budget: p=0.4^8 residual risk
  core::TrainedModel clean = core::TrainAutoTest(corpus, evals, topt);
  ASSERT_GT(clean.constraints.size(), 0u);
  ASSERT_EQ(clean.evals_skipped, 0u);

  auto& reg = util::FailpointRegistry::Global();
  ASSERT_TRUE(reg.Configure("trainer.eval:p=0.4,seed=2024").ok());
  core::TrainedModel faulty = core::TrainAutoTest(corpus, evals, topt);
  topt.num_threads = 4;
  core::TrainedModel faulty4 = core::TrainAutoTest(corpus, evals, topt);

  // The faults really fired (p=0.4 over the family fan-out) and every
  // family recovered inside the budget.
  EXPECT_GT(reg.fires(util::kFpTrainerEval), 0u);
  reg.Reset();
  ASSERT_EQ(faulty.evals_skipped, 0u);
  ASSERT_EQ(faulty4.evals_skipped, 0u);
  ExpectSameModel(clean, faulty);
  ExpectSameModel(clean, faulty4);
}

}  // namespace
}  // namespace autotest
