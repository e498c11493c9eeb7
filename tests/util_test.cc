#include <gtest/gtest.h>

#ifdef __linux__
#include <sched.h>
#endif

#include <atomic>
#include <memory>
#include <set>

#include "util/failpoint.h"
#include "util/hashing.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/parallel/thread_pool.h"

// Compile-fail harness for the [[nodiscard]] contract. Each
// `nodiscard_compile_fail*` ctest entry re-compiles this file with
// -fsyntax-only and AT_NODISCARD_COMPILE_FAIL set to one discard below,
// and is registered WILL_FAIL: under -Werror=unused-result the build MUST
// reject (1) a discarded TryLoadRulesFromFile(...) result, and discarded
// values of functions declared with no attribute of their own returning
// (2) Status or (3) Result<T>. Cases 2 and 3 prove the class-level
// [[nodiscard]] on Status and Result<T> covers every declaration. The twin
// entry `nodiscard_compile_fail_control` compiles without the define to
// prove the harness itself is well-formed.
#ifdef AT_NODISCARD_COMPILE_FAIL
#include "core/serialization.h"
namespace autotest::core {
#if AT_NODISCARD_COMPILE_FAIL == 1
void DiscardsTryResult(const typedet::EvalFunctionSet& evals) {
  TryLoadRulesFromFile("rules.sdc", evals);
}
#elif AT_NODISCARD_COMPILE_FAIL == 2
util::Status PlainStatus();
void DiscardsPlainStatus() { PlainStatus(); }
#elif AT_NODISCARD_COMPILE_FAIL == 3
util::Result<int> PlainResult();
void DiscardsPlainResult() { PlainResult(); }
#endif
}  // namespace autotest::core
#endif  // AT_NODISCARD_COMPILE_FAIL

namespace autotest::util {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t x = rng.UniformInt(-3, 5);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 5);
  }
}

TEST(RngTest, UniformDoubleRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.UniformDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, PickCoversAllElements) {
  Rng rng(3);
  std::vector<int> items = {1, 2, 3};
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.Pick(items));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(3);
  std::vector<int> items = {1, 2, 3, 4, 5, 6};
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  std::multiset<int> a(items.begin(), items.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, PickWeightedRespectsZeroWeight) {
  Rng rng(5);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.PickWeighted(weights), 1u);
  }
}

TEST(RngTest, ForkIndependence) {
  Rng base(9);
  Rng a = base.Fork(1);
  Rng b = base.Fork(2);
  // Different tags should diverge quickly.
  bool differs = false;
  for (int i = 0; i < 10; ++i) {
    if (a.UniformInt(0, 1 << 30) != b.UniformInt(0, 1 << 30)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("HeLLo 123"), "hello 123");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  abc  "), "abc");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, Split) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, Predicates) {
  EXPECT_TRUE(IsAllDigits("0123"));
  EXPECT_FALSE(IsAllDigits("12a"));
  EXPECT_FALSE(IsAllDigits(""));
  EXPECT_TRUE(IsAllAlpha("abcXYZ"));
  EXPECT_FALSE(IsAllAlpha("ab1"));
  EXPECT_FALSE(IsAllAlpha(""));
}

TEST(StringUtilTest, Ratios) {
  EXPECT_DOUBLE_EQ(DigitRatio("a1b2"), 0.5);
  EXPECT_DOUBLE_EQ(AlphaRatio("a1b2"), 0.5);
  EXPECT_DOUBLE_EQ(DigitRatio(""), 0.0);
}

TEST(StringUtilTest, EditDistance) {
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("february", "febuary"), 1u);
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("https://x", "https://"));
  EXPECT_FALSE(StartsWith("http://x", "https://"));
  EXPECT_TRUE(EndsWith("file.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", ".csv"));
}

TEST(HashingTest, FnvStableAndDistinct) {
  EXPECT_EQ(Fnv64("abc"), Fnv64("abc"));
  EXPECT_NE(Fnv64("abc"), Fnv64("abd"));
  EXPECT_NE(Fnv64Seeded("abc", 1), Fnv64Seeded("abc", 2));
}

TEST(HashingTest, HashToUnitDoubleRange) {
  for (uint64_t i = 0; i < 1000; ++i) {
    double x = HashToUnitDouble(SplitMix64(i));
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(Status::Ok().ok());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = DataLossError("truncated at byte 17");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_EQ(st.message(), "truncated at byte 17");
  EXPECT_EQ(st.ToString(), "DATA_LOSS: truncated at byte 17");
}

TEST(StatusTest, ContextChainRendersInnermostFirst) {
  Status st = IoError("read failed")
                  .WithContext("loading rules from rules.sdc")
                  .WithContext("serving request");
  EXPECT_EQ(st.ToString(),
            "IO_ERROR: read failed\n  while loading rules from rules.sdc"
            "\n  while serving request");
  ASSERT_EQ(st.context().size(), 2u);
  EXPECT_EQ(st.context()[0], "loading rules from rules.sdc");
}

TEST(StatusTest, ContextOnOkIsNoOp) {
  Status st = Status::Ok().WithContext("ignored");
  EXPECT_TRUE(st.ok());
  EXPECT_TRUE(st.context().empty());
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeName(StatusCode::kInvalidArgument),
            "INVALID_ARGUMENT");
  EXPECT_EQ(StatusCodeName(StatusCode::kResourceExhausted),
            "RESOURCE_EXHAUSTED");
  EXPECT_EQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_EQ(StatusCodeName(StatusCode::kIoError), "IO_ERROR");
}

TEST(StatusTest, EveryCodeHasADistinctNameAndRoundTrips) {
  // Exhaustive over the enum: a new StatusCode without a name (or with a
  // colliding one) breaks diagnostics and the recipe provenance format.
  const StatusCode all[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kDataLoss,
      StatusCode::kIoError,      StatusCode::kResourceExhausted,
      StatusCode::kFailedPrecondition, StatusCode::kInternal,
      StatusCode::kDeadlineExceeded,
  };
  std::set<std::string> names;
  for (StatusCode code : all) {
    std::string_view name = StatusCodeName(code);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "UNKNOWN") << static_cast<int>(code);
    names.insert(std::string(name));
    // Round-trip through the parser used by degraded-mode provenance.
    auto parsed = StatusCodeFromName(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, code);
  }
  EXPECT_EQ(names.size(), std::size(all));
  EXPECT_FALSE(StatusCodeFromName("NO_SUCH_CODE").has_value());
  EXPECT_FALSE(StatusCodeFromName("").has_value());
  EXPECT_FALSE(StatusCodeFromName("io_error").has_value());  // case matters
}

TEST(StatusTest, DeepContextChainPreservesOrderAndFormatting) {
  // Depth >= 3: innermost frame first, each rendered on its own
  // "  while ..." line, in the exact order the frames were attached.
  Status st = IoError("read failed")
                  .WithContext("reading shard 3 (attempt 2)")
                  .WithContext("building training corpus")
                  .WithContext("training on tablib corpus")
                  .WithContext("serving train command");
  ASSERT_EQ(st.context().size(), 4u);
  EXPECT_EQ(st.context()[0], "reading shard 3 (attempt 2)");
  EXPECT_EQ(st.context()[1], "building training corpus");
  EXPECT_EQ(st.context()[2], "training on tablib corpus");
  EXPECT_EQ(st.context()[3], "serving train command");
  EXPECT_EQ(st.ToString(),
            "IO_ERROR: read failed"
            "\n  while reading shard 3 (attempt 2)"
            "\n  while building training corpus"
            "\n  while training on tablib corpus"
            "\n  while serving train command");
  // The chain survives copies intact (statuses cross thread boundaries in
  // shard reports).
  Status copy = st;
  EXPECT_EQ(copy.ToString(), st.ToString());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = InvalidArgumentError("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> NeedsPositive(int x) {
  if (x <= 0) return InvalidArgumentError("x must be positive");
  return x * 2;
}

Result<int> MacroChain(int x) {
  AT_ASSIGN_OR_RETURN(int doubled, NeedsPositive(x));
  AT_RETURN_IF_ERROR(Status::Ok());
  return doubled + 1;
}

TEST(ResultTest, MacrosPropagateAndUnwrap) {
  auto ok = MacroChain(3);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 7);
  auto err = MacroChain(-1);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

// Programmer-error invariants stay aborts (DESIGN.md §4c): unwrapping an
// error Result is a bug in the caller, not a recoverable condition.
using StatusDeathTest = ::testing::Test;

TEST(StatusDeathTest, ValueOnErrorAborts) {
  Result<int> r = InternalError("boom");
  EXPECT_DEATH({ (void)r.value(); }, "Result::value\\(\\) on error status");
}

TEST(StatusDeathTest, ResultFromOkStatusAborts) {
  EXPECT_DEATH({ Result<int> r(Status::Ok()); (void)r; },
               "Result constructed from OK status");
}

class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Global().Reset(); }
};

TEST_F(FailpointTest, DisarmedByDefault) {
  EXPECT_FALSE(FailpointFires(kFpCsvOpen));
  EXPECT_FALSE(FailpointFires(kFpRulesParse));
}

TEST_F(FailpointTest, ArmOnAlwaysFires) {
  auto& reg = FailpointRegistry::Global();
  ASSERT_TRUE(reg.Configure("rules.parse=on").ok());
  EXPECT_TRUE(FailpointFires(kFpRulesParse));
  EXPECT_TRUE(FailpointFires(kFpRulesParse));
  EXPECT_FALSE(FailpointFires(kFpCsvOpen));  // others stay disarmed
  EXPECT_EQ(reg.fires(kFpRulesParse), 2u);
  EXPECT_EQ(reg.evaluations(kFpRulesParse), 2u);
}

TEST_F(FailpointTest, OffDisarms) {
  auto& reg = FailpointRegistry::Global();
  ASSERT_TRUE(reg.Configure("rules.parse=on").ok());
  ASSERT_TRUE(reg.Configure("rules.parse=off").ok());
  EXPECT_FALSE(FailpointFires(kFpRulesParse));
}

TEST_F(FailpointTest, AllArmsEveryPoint) {
  auto& reg = FailpointRegistry::Global();
  ASSERT_TRUE(reg.Configure("all=on").ok());
  for (std::string_view fp : kAllFailpoints) {
    EXPECT_TRUE(FailpointFires(fp)) << fp;
  }
}

TEST_F(FailpointTest, ProbabilisticFiringIsDeterministicPerSeed) {
  auto& reg = FailpointRegistry::Global();
  ASSERT_TRUE(reg.Configure("csv.parse:p=0.5,seed=42").ok());
  std::vector<bool> first;
  for (int i = 0; i < 64; ++i) first.push_back(FailpointFires(kFpCsvParse));
  uint64_t fires_first = reg.fires(kFpCsvParse);
  // Same seed, fresh counters: identical decision stream.
  reg.Reset();
  ASSERT_TRUE(reg.Configure("csv.parse:p=0.5,seed=42").ok());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(FailpointFires(kFpCsvParse), first[i]) << "i=" << i;
  }
  EXPECT_EQ(reg.fires(kFpCsvParse), fires_first);
  // p=0.5 over 64 draws should both fire and not fire at least once.
  EXPECT_GT(fires_first, 0u);
  EXPECT_LT(fires_first, 64u);
}

TEST_F(FailpointTest, DifferentSeedsDiverge) {
  auto& reg = FailpointRegistry::Global();
  ASSERT_TRUE(reg.Configure("csv.parse:p=0.5,seed=1").ok());
  std::vector<bool> a;
  for (int i = 0; i < 64; ++i) a.push_back(FailpointFires(kFpCsvParse));
  reg.Reset();
  ASSERT_TRUE(reg.Configure("csv.parse:p=0.5,seed=2").ok());
  std::vector<bool> b;
  for (int i = 0; i < 64; ++i) b.push_back(FailpointFires(kFpCsvParse));
  EXPECT_NE(a, b);
}

TEST_F(FailpointTest, BadSpecsRejected) {
  auto& reg = FailpointRegistry::Global();
  Status unknown = reg.Configure("no.such.point=on");
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.message().find("unknown failpoint"), std::string::npos);
  EXPECT_EQ(reg.Configure("csv.parse:p=1.5").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Configure("csv.parse:p=abc").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Configure("csv.parse=maybe").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Configure("seed=notanumber").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Configure("garbage").code(), StatusCode::kInvalidArgument);
  // A rejected spec must not leave anything half-armed... entries before
  // the bad one may have applied; a disarmed registry stays usable.
  reg.Reset();
  EXPECT_FALSE(FailpointFires(kFpCsvParse));
}

TEST_F(FailpointTest, ZeroProbabilityNeverFires) {
  auto& reg = FailpointRegistry::Global();
  ASSERT_TRUE(reg.Configure("csv.parse:p=0").ok());
  for (int i = 0; i < 32; ++i) EXPECT_FALSE(FailpointFires(kFpCsvParse));
}

parallel::Options Threads(size_t n) {
  parallel::Options opt;
  opt.num_threads = n;
  return opt;
}

TEST(ThreadPoolTest, RunsAllIndices) {
  std::vector<int> hits(1000, 0);
  parallel::ParallelFor(hits.size(), [&](size_t i) { hits[i] = 1; },
                        Threads(8));
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, EmptyAndSingle) {
  std::atomic<int> count{0};
  parallel::ParallelFor(0, [&](size_t) { count++; });
  EXPECT_EQ(count.load(), 0);
  parallel::ParallelFor(1, [&](size_t) { count++; }, Threads(4));
  EXPECT_EQ(count.load(), 1);
  EXPECT_GE(parallel::DefaultThreadCount(), 1u);
}

#ifdef __linux__
TEST(ThreadPoolTest, DefaultThreadCountFollowsTheAffinityMask) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(parallel::DefaultThreadCount(),
            static_cast<size_t>(CPU_COUNT(&saved)));
  // Pin this thread to the first CPU of its mask, as `taskset -c` would.
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const size_t pinned = parallel::DefaultThreadCount();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
}
#endif

}  // namespace
}  // namespace autotest::util
