// Google-benchmark microbenchmarks for the per-component costs behind the
// paper's latency figures: distance evaluation, profile construction,
// pattern matching, validators, statistics, and the LP solver.

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "core/sdc.h"
#include "datagen/column_gen.h"
#include "datagen/gazetteer.h"
#include "embed/embedding.h"
#include "lp/simplex.h"
#include "pattern/pattern.h"
#include "stats/statistics.h"
#include "typedet/eval_functions.h"
#include "typedet/validators.h"
#include "util/rng.h"

namespace {

using namespace autotest;

table::Column MakeCityColumn(size_t n) {
  const auto& gaz = datagen::Gazetteer::Instance();
  util::Rng rng(1);
  datagen::ColumnGenOptions opt;
  opt.min_values = n;
  opt.max_values = n;
  return datagen::GenerateColumn(*gaz.Find("city_us"), opt, rng);
}

void BM_PatternMatch(benchmark::State& state) {
  auto p = pattern::Pattern::Parse("\\d{1,2}/\\d{1,2}/\\d{4}");
  for (auto _ : state) {
    benchmark::DoNotOptimize(p->Matches("12/31/2020"));
    benchmark::DoNotOptimize(p->Matches("new facility"));
  }
}
BENCHMARK(BM_PatternMatch);

void BM_PatternGeneralize(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(pattern::Generalize(
        "b50005237", pattern::GeneralizationLevel::kGeneral));
  }
}
BENCHMARK(BM_PatternGeneralize);

void BM_ValidateDate(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(typedet::ValidateDate("12/3/2020"));
    benchmark::DoNotOptimize(typedet::ValidateDate("not a date"));
  }
}
BENCHMARK(BM_ValidateDate);

void BM_ValidateCreditCard(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(typedet::ValidateCreditCard("4539578763621486"));
  }
}
BENCHMARK(BM_ValidateCreditCard);

void BM_SbertEmbed(benchmark::State& state) {
  auto model = embed::MakeSbertSim();
  embed::Vector v;
  int i = 0;
  for (auto _ : state) {
    // Defeat the cache with a rotating suffix.
    benchmark::DoNotOptimize(
        model->Embed("seattle" + std::to_string(i++ % 4096), &v));
  }
}
BENCHMARK(BM_SbertEmbed);

void BM_EmbeddingDistanceCached(benchmark::State& state) {
  auto model = embed::MakeSbertSim();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->Distance("seattle", "chicago"));
  }
}
BENCHMARK(BM_EmbeddingDistanceCached);

void BM_ColumnProfile(benchmark::State& state) {
  auto column = MakeCityColumn(static_cast<size_t>(state.range(0)));
  auto distinct = table::Distinct(column);
  auto model = embed::MakeSbertSim();
  auto eval = typedet::MakeEmbeddingEval(model.get(), "seattle");
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ComputeProfile(*eval, distinct));
  }
}
BENCHMARK(BM_ColumnProfile)->Arg(50)->Arg(200);

void BM_WilsonInterval(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::WilsonLowerBound(990, 1000, 1.65));
  }
}
BENCHMARK(BM_WilsonInterval);

void BM_CohensH(benchmark::State& state) {
  stats::ContingencyTable t;
  t.covered_triggered = 10;
  t.covered_not_triggered = 990;
  t.uncovered_triggered = 160000;
  t.uncovered_not_triggered = 40000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::CohensH(t));
  }
}
BENCHMARK(BM_CohensH);

void BM_SimplexMaxCoverage(benchmark::State& state) {
  // A CSS-LP-shaped instance: n rules, 2n columns, 2 budgets.
  size_t n = static_cast<size_t>(state.range(0));
  util::Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    lp::LinearProgram prog;
    std::vector<size_t> x(n);
    for (size_t i = 0; i < n; ++i) x[i] = prog.AddVariable(0.0, 1.0);
    for (size_t j = 0; j < 2 * n; ++j) {
      size_t y = prog.AddVariable(1.0, 1.0);
      lp::Constraint c;
      c.rhs = 0.0;
      c.terms.push_back({y, 1.0});
      for (int k = 0; k < 3; ++k) {
        c.terms.push_back(
            {x[static_cast<size_t>(rng.UniformInt(
                 0, static_cast<int64_t>(n) - 1))],
             -1.0});
      }
      prog.AddConstraint(std::move(c));
    }
    lp::Constraint size_c;
    size_c.rhs = static_cast<double>(n) / 4.0;
    for (size_t i = 0; i < n; ++i) size_c.terms.push_back({x[i], 1.0});
    prog.AddConstraint(std::move(size_c));
    state.ResumeTiming();
    benchmark::DoNotOptimize(lp::SolveLp(prog));
  }
}
// The 10000-rule instance takes minutes per solve; it exists for manual
// scaling runs (AT_BENCH_FULL=1) and is kept out of the CI gate, which
// repeats every benchmark 15 times.
BENCHMARK(BM_SimplexMaxCoverage)->Apply([](benchmark::internal::Benchmark* b) {
  b->Arg(50)->Arg(200)->Arg(1000);
  if (std::getenv("AT_BENCH_FULL") != nullptr) b->Arg(10000);
});

}  // namespace

BENCHMARK_MAIN();
