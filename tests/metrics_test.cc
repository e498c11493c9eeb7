// Tests for the uniform metrics registry (DESIGN.md §4f): registration
// idempotence and kind safety, name validation, deterministic snapshot
// ordering, text/JSON serialization (including escaping and non-finite
// handling), lock-free concurrent increments, and histogram bucketing.

#include "util/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AT_METRICS_TEST_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define AT_METRICS_TEST_TSAN 1
#endif

namespace autotest::metrics {
namespace {

TEST(MetricNameTest, AcceptsWellFormedNames) {
  EXPECT_TRUE(IsValidMetricName("parallel.steals"));
  EXPECT_TRUE(IsValidMetricName("failpoint.csv.open.fires"));
  EXPECT_TRUE(IsValidMetricName("bench.fig12.fine_select_s_per_col"));
  EXPECT_TRUE(IsValidMetricName("a.b0_c"));
  for (std::string_view name : kAllMetrics) {
    EXPECT_TRUE(IsValidMetricName(name)) << name;
  }
}

TEST(MetricNameTest, RejectsMalformedNames) {
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("noscope"));       // needs >= 2 segments
  EXPECT_FALSE(IsValidMetricName(".leading.dot"));  // empty first segment
  EXPECT_FALSE(IsValidMetricName("trailing.dot."));
  EXPECT_FALSE(IsValidMetricName("a..b"));          // empty middle segment
  EXPECT_FALSE(IsValidMetricName("Upper.case"));
  EXPECT_FALSE(IsValidMetricName("a.1starts_with_digit"));
  EXPECT_FALSE(IsValidMetricName("a._starts_with_underscore"));
  EXPECT_FALSE(IsValidMetricName("a.b-c"));  // '-' not in the alphabet
  EXPECT_FALSE(IsValidMetricName("a.b c"));
}

TEST(RegistryTest, RegistrationIsIdempotent) {
  Registry& reg = Registry::Global();
  Counter& a = reg.GetCounter("test.idempotent_counter");
  Counter& b = reg.GetCounter("test.idempotent_counter");
  EXPECT_EQ(&a, &b);
  a.Increment(3);
  EXPECT_EQ(b.value(), 3u);

  Gauge& g1 = reg.GetGauge("test.idempotent_gauge");
  Gauge& g2 = reg.GetGauge("test.idempotent_gauge");
  EXPECT_EQ(&g1, &g2);

  std::vector<double> bounds = {1.0, 2.0, 4.0};
  Histogram& h1 = reg.GetHistogram("test.idempotent_hist", bounds);
  Histogram& h2 = reg.GetHistogram("test.idempotent_hist", bounds);
  EXPECT_EQ(&h1, &h2);
  EXPECT_TRUE(reg.IsRegistered("test.idempotent_counter"));
  EXPECT_FALSE(reg.IsRegistered("test.never_registered"));
}

// Programmer-error invariants stay aborts (DESIGN.md §4c). Death tests
// fork, which ThreadSanitizer does not support reliably; the TSan CI shard
// covers the concurrency tests instead.
#if GTEST_HAS_DEATH_TEST && !defined(AT_METRICS_TEST_TSAN)
TEST(RegistryDeathTest, KindMismatchAborts) {
  Registry& reg = Registry::Global();
  reg.GetCounter("test.kind_mismatch");
  EXPECT_DEATH((void)reg.GetGauge("test.kind_mismatch"), "kind");
}

TEST(RegistryDeathTest, InvalidNameAborts) {
  EXPECT_DEATH((void)Registry::Global().GetCounter("BadName"), "name");
}

TEST(RegistryDeathTest, HistogramBoundsMismatchAborts) {
  Registry& reg = Registry::Global();
  reg.GetHistogram("test.bounds_mismatch", {1.0, 2.0});
  EXPECT_DEATH((void)reg.GetHistogram("test.bounds_mismatch", {1.0, 3.0}),
               "bounds");
}
#endif

TEST(RegistryTest, SnapshotIsSortedByName) {
  Registry& reg = Registry::Global();
  // Register in reverse lexicographic order; Snapshot must still sort.
  reg.GetCounter("test.sort_c");
  reg.GetCounter("test.sort_b");
  reg.GetCounter("test.sort_a");
  std::vector<MetricValue> snap = reg.Snapshot();
  ASSERT_GE(snap.size(), 3u);
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].name, snap[i].name);
  }
}

TEST(HistogramTest, BucketsCountAndOverflow) {
  Registry& reg = Registry::Global();
  Histogram& h = reg.GetHistogram("test.hist_buckets", {1.0, 4.0, 16.0});
  h.Reset();
  h.Observe(0.5);   // le=1
  h.Observe(1.0);   // le=1 (bounds are inclusive upper limits)
  h.Observe(3.0);   // le=4
  h.Observe(16.0);  // le=16
  h.Observe(99.0);  // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 3.0 + 16.0 + 99.0);
  std::vector<uint64_t> buckets = h.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST(SerializationTest, JsonEscapesControlAndSpecialChars) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(SerializationTest, JsonDocumentShape) {
  MetricValue c;
  c.name = "test.doc_counter";
  c.kind = MetricKind::kCounter;
  c.counter = 7;
  MetricValue g;
  g.name = "test.doc_gauge";
  g.kind = MetricKind::kGauge;
  g.gauge = 1.5;
  MetricValue h;
  h.name = "test.doc_hist";
  h.kind = MetricKind::kHistogram;
  h.histogram.bounds = {1.0, 2.0};
  h.histogram.buckets = {3, 0, 1};
  h.histogram.count = 4;
  h.histogram.sum = 5.25;
  std::string json = FormatMetricsJson({c, g, h}, "unit \"test\"");

  EXPECT_NE(json.find("\"schema\":\"autotest.metrics.v1\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"source\":\"unit \\\"test\\\"\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"name\":\"test.doc_counter\",\"kind\":"
                      "\"counter\",\"value\":7}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"name\":\"test.doc_gauge\",\"kind\":\"gauge\","
                      "\"value\":1.5}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"count\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sum\":5.25"), std::string::npos) << json;
  EXPECT_NE(json.find("{\"le\":1,\"count\":3}"), std::string::npos) << json;
  EXPECT_NE(json.find("{\"le\":\"+inf\",\"count\":1}"), std::string::npos)
      << json;
}

TEST(SerializationTest, NonFiniteGaugesSerializeAsNull) {
  MetricValue g;
  g.name = "test.doc_nonfinite";
  g.kind = MetricKind::kGauge;
  g.gauge = std::numeric_limits<double>::quiet_NaN();
  std::string json = FormatMetricsJson({g}, "t");
  EXPECT_NE(json.find("\"value\":null"), std::string::npos) << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
}

TEST(SerializationTest, GaugeValuesRoundTripExactly) {
  // The serializer must emit the shortest decimal that parses back to the
  // exact double — probe a few awkward values through strtod.
  for (double v : {0.1, 1.0 / 3.0, 1e-9, 123456.789, 6.02214076e23}) {
    MetricValue g;
    g.name = "test.doc_roundtrip";
    g.kind = MetricKind::kGauge;
    g.gauge = v;
    std::string json = FormatMetricsJson({g}, "t");
    size_t pos = json.find("\"value\":");
    ASSERT_NE(pos, std::string::npos) << json;
    double parsed = std::strtod(json.c_str() + pos + 8, nullptr);
    EXPECT_EQ(parsed, v) << json;
  }
}

TEST(RegistryTest, ConcurrentIncrementsSumExactly) {
  Registry& reg = Registry::Global();
  Counter& c = reg.GetCounter("test.concurrent_counter");
  Histogram& h = reg.GetHistogram("test.concurrent_hist", {10.0, 100.0});
  c.Reset();
  h.Reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Increment();
        h.Observe(1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h.count(), uint64_t{kThreads} * kPerThread);
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kThreads) * kPerThread);
  EXPECT_EQ(h.BucketCounts()[0], uint64_t{kThreads} * kPerThread);
}

TEST(RegistryTest, GaugeAddIsAtomic) {
  Gauge& g = Registry::Global().GetGauge("test.concurrent_gauge");
  g.Reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) g.Add(1.0);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads) * kPerThread);
}

TEST(RegistryTest, ResetValuesForTestKeepsRegistrations) {
  Registry& reg = Registry::Global();
  Counter& c = reg.GetCounter("test.reset_counter");
  c.Increment(9);
  reg.ResetValuesForTest();
  EXPECT_TRUE(reg.IsRegistered("test.reset_counter"));
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&reg.GetCounter("test.reset_counter"), &c);
}

}  // namespace
}  // namespace autotest::metrics
