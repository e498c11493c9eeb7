// Tests for the persistent work-stealing pool in util/parallel: exactly-once
// execution across edge-case shapes, nested regions, reuse across many
// calls, contention under skewed per-item cost, the pool's counters, and
// regions run after a fork.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/hashing.h"
#include "util/metrics.h"
#include "util/parallel/thread_pool.h"

namespace autotest::util::parallel {
namespace {

Options Threads(size_t n, size_t grain = 0) {
  Options opt;
  opt.num_threads = n;
  opt.grain = grain;
  return opt;
}

// Every index in [0, n) must execute exactly once.
void ExpectExactlyOnce(size_t n, const Options& opt) {
  std::vector<std::atomic<uint32_t>> hits(n);
  for (auto& h : hits) h.store(0);
  ParallelFor(n, [&](size_t i) { hits[i].fetch_add(1); }, opt);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
  }
}

TEST(ParallelForTest, ZeroItems) {
  std::atomic<uint32_t> calls{0};
  ParallelFor(0, [&](size_t) { calls.fetch_add(1); }, Threads(8));
  EXPECT_EQ(calls.load(), 0u);
}

TEST(ParallelForTest, SingleItem) { ExpectExactlyOnce(1, Threads(8)); }

TEST(ParallelForTest, FewerItemsThanThreads) {
  ExpectExactlyOnce(3, Threads(8));
}

TEST(ParallelForTest, NotDivisibleByGrain) {
  // 1000 = 142 * 7 + 6: last chunk is a partial one.
  ExpectExactlyOnce(1000, Threads(4, /*grain=*/7));
}

TEST(ParallelForTest, GrainLargerThanN) {
  ExpectExactlyOnce(5, Threads(4, /*grain=*/100));
}

TEST(ParallelForTest, ManyThreadCountGrainCombos) {
  for (size_t threads : {1, 2, 3, 8, 16}) {
    for (size_t grain : {0, 1, 3, 64}) {
      ExpectExactlyOnce(257, Threads(threads, grain));
    }
  }
}

TEST(ParallelForTest, NestedCallsRunInline) {
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 100;
  std::vector<uint64_t> sums(kOuter, 0);
  ParallelFor(
      kOuter,
      [&](size_t o) {
        // The nested region must execute serially on this worker without
        // deadlocking or touching other outer iterations' slots.
        ParallelFor(
            kInner, [&](size_t i) { sums[o] += i + 1; }, Threads(8));
      },
      Threads(8, /*grain=*/1));
  for (size_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(sums[o], kInner * (kInner + 1) / 2);
  }
}

TEST(ParallelForTest, ReuseAcrossThousandCalls) {
  // The pool is persistent: 1000 successive regions reuse the same
  // workers. Mix shapes so ranges/tickets are re-initialized every time.
  std::atomic<uint64_t> total{0};
  uint64_t expected = 0;
  for (size_t call = 0; call < 1000; ++call) {
    size_t n = 1 + (call % 37);
    expected += n;
    ParallelFor(n, [&](size_t) { total.fetch_add(1); },
                Threads(1 + call % 5));
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(ParallelForTest, ConcurrentExternalSubmitters) {
  // Regions submitted from distinct external threads serialize on the
  // pool but must all complete correctly.
  constexpr size_t kSubmitters = 4;
  constexpr size_t kN = 500;
  std::vector<std::atomic<uint64_t>> counts(kSubmitters);
  for (auto& c : counts) c.store(0);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kSubmitters; ++s) {
    threads.emplace_back([&, s] {
      for (int rep = 0; rep < 20; ++rep) {
        ParallelFor(kN, [&](size_t) { counts[s].fetch_add(1); },
                    Threads(4));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t s = 0; s < kSubmitters; ++s) {
    EXPECT_EQ(counts[s].load(), 20u * kN);
  }
}

TEST(ParallelForTest, ContentionStressSkewedCost) {
  // Skewed per-item cost: a few indices are ~1000x more expensive, so
  // naive static partitioning would leave most workers idle; stealing
  // must still execute every index exactly once.
  constexpr size_t kN = 20000;
  std::vector<std::atomic<uint32_t>> hits(kN);
  for (auto& h : hits) h.store(0);
  std::atomic<uint64_t> sink{0};
  ParallelFor(
      kN,
      [&](size_t i) {
        uint64_t spin = (i % 1024 == 0) ? 20000 : 20;
        uint64_t acc = i;
        for (uint64_t s = 0; s < spin; ++s) acc = SplitMix64(acc);
        sink.fetch_add(acc & 1, std::memory_order_relaxed);
        hits[i].fetch_add(1);
      },
      Threads(8, /*grain=*/16));
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
  }
}

// ---------------------------------------------------------------------------
// The pool's parallel.* registry counters.
// ---------------------------------------------------------------------------

uint64_t CounterValue(std::string_view name) {
  return metrics::Registry::Global().GetCounter(name).value();
}

TEST(ParallelStatsTest, CountersAdvance) {
  metrics::Registry::Global().ResetValuesForTest();
  ParallelFor(1000, [](size_t) {}, Threads(4, /*grain=*/10));
  EXPECT_EQ(CounterValue(metrics::kMParallelInvocations), 1u);
  EXPECT_EQ(CounterValue(metrics::kMParallelItems), 1000u);
  EXPECT_EQ(CounterValue(metrics::kMParallelChunks), 100u);
  EXPECT_LE(CounterValue(metrics::kMParallelParticipants),
            CounterValue(metrics::kMParallelSlotsOffered));
  std::string text = FormatStats();
  EXPECT_NE(text.find("invocations=1"), std::string::npos);
  EXPECT_NE(text.find("items=1000"), std::string::npos);
}

TEST(ParallelStatsTest, SerialFallbackCounted) {
  metrics::Registry::Global().ResetValuesForTest();
  ParallelFor(50, [](size_t) {}, Threads(1));
  EXPECT_EQ(CounterValue(metrics::kMParallelSerialInvocations), 1u);
  EXPECT_EQ(CounterValue(metrics::kMParallelItems), 50u);
}

// A fork-style death test whose statement enters a parallel region after
// the pool has run: the child must not wait on the parent's workers or on
// a lock one of them held at the fork. It forgets the workers and runs the
// region serially, then dies with the message the test expects.
TEST(ThreadPoolForkTest, FastDeathTestRunsARegionAfterThePoolRan) {
  std::atomic<size_t> sum{0};
  ParallelFor(1000, [&](size_t i) { sum.fetch_add(i); }, Threads(4));
  ASSERT_EQ(sum.load(), 499500u);
  ASSERT_GT(ThreadPool::Global().num_workers(), 0u);
  ::testing::GTEST_FLAG(death_test_style) = "fast";
  EXPECT_DEATH(
      {
        std::atomic<size_t> child_sum{0};
        ParallelFor(1000, [&](size_t i) { child_sum.fetch_add(i); },
                    Threads(4));
        std::fprintf(stderr, "child sum=%zu workers=%zu\n", child_sum.load(),
                     ThreadPool::Global().num_workers());
        std::abort();
      },
      "child sum=499500 workers=0");
  // The parent's pool still runs regions on its workers.
  sum = 0;
  ParallelFor(1000, [&](size_t i) { sum.fetch_add(i); }, Threads(4));
  EXPECT_EQ(sum.load(), 499500u);
  EXPECT_GT(ThreadPool::Global().num_workers(), 0u);
}

}  // namespace
}  // namespace autotest::util::parallel
