// Paper Figure 12: online prediction latency — average time to process one
// column, for every method.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

int main() {
  using namespace autotest;
  benchx::Scale scale = benchx::GetScale();
  scale.bench_columns = std::min<size_t>(scale.bench_columns, 400);
  benchx::Env env = benchx::BuildEnv("relational", scale);

  // Each SDC variant's rules, selected once. Every pass builds a fresh
  // predictor from them, so every pass times prediction from a cold plan
  // memo, as the first request after a snapshot loads does.
  const std::pair<const char*, core::Variant> variants[] = {
      {"fine-select", core::Variant::kFineSelect},
      {"coarse-select", core::Variant::kCoarseSelect},
      {"all-constraints", core::Variant::kAllConstraints},
  };
  std::vector<std::pair<std::string, std::vector<core::Sdc>>> sdc_rules;
  for (const auto& [name, variant] : variants) {
    sdc_rules.emplace_back(name, env.at->MakePredictor(variant).rules());
  }
  // AT_BENCH_SDC_ONLY skips the baseline roster: the CI regression gate
  // pins only the SDC variants and wants the fast path.
  std::vector<std::unique_ptr<eval::ErrorDetector>> baselines;
  if (!benchx::SdcOnly()) baselines = benchx::BuildBaselines(env);

  benchx::BenchMetrics bench_metrics("bench_fig12_latency");
  benchx::PrintHeader("Figure 12: average latency per column (seconds)");
  // In SDC-only (CI) mode the roster is tiny, so take a min-of-5 per
  // detector: single passes are too noisy for a 25% regression gate.
  const int reps = benchx::SdcOnly() ? 5 : 1;
  auto report = [&](const std::string& name, double sec) {
    // The GPT-4 rows in the paper are API-bound (~20 s/column); our LLM-sim
    // computes locally, so report its simulated service latency separately.
    bool is_llm = name.rfind("gpt", 0) == 0;
    std::printf("%-24s %12.6f s/col%s\n", name.c_str(), sec,
                is_llm ? "   (+~20 s/col API latency in the paper's setup)"
                       : "");
    std::string slug = name;
    for (char& c : slug) {
      if (c == '-' || c == '.') c = '_';
    }
    bench_metrics.Gauge("bench.fig12." + slug + "_s_per_col", sec);
  };
  for (const auto& [name, rules] : sdc_rules) {
    double sec = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < reps; ++rep) {
      const core::SdcPredictor predictor(rules);
      const baselines::SdcDetector detector(name, &predictor);
      sec = std::min(sec, RunDetector(detector, env.rt, 1).seconds_per_column);
    }
    report(name, sec);
  }
  for (const auto& det : baselines) {
    report(det->name(), RunDetector(*det, env.rt, 1).seconds_per_column);
  }
  bench_metrics.MaybeWriteEnv();
  std::printf(
      "\nExpected shape (paper Fig 12): fine-select is interactive and a\n"
      "multiple faster than all-constraints; GPT is orders of magnitude "
      "slower.\n");
  return 0;
}
