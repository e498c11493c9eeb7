#include "core/trainer.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <mutex>
#include <span>
#include <string_view>
#include <typeinfo>
#include <unordered_set>

#include "core/threshold_bytes.h"
#include "embed/vector_math.h"
#include "stats/statistics.h"
#include "table/column_store.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/parallel/thread_pool.h"
#include "util/retry.h"
#include "util/rng.h"

namespace autotest::core {

namespace {

using Clock = std::chrono::steady_clock;

// Pool values per block: the unit of one backend-row computation. Large
// enough to amortize the per-call cache pass, small enough that a block's
// distances stay in L1/L2.
constexpr size_t kEvalBatchSize = 256;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct FunctionResult {
  std::vector<Sdc> survivors;
  std::vector<std::vector<uint32_t>> detections;
  size_t enumerated = 0;
  size_t pruned = 0;
  size_t rejected = 0;
  bool skipped = false;  // dropped under an injected fault
  double candidate_seconds = 0.0;
  double synthetic_seconds = 0.0;
};

// Grid thresholds for one evaluation function: its ni inner thresholds
// d_in, then its outer thresholds d_out, in one non-decreasing list, the
// bounds of its bucket bytes (ThresholdByte).
struct Thresholds {
  std::vector<double> bounds;
  size_t ni = 0;

  size_t no() const { return bounds.size() - ni; }
  double d_in(size_t i) const { return bounds[i]; }
  double d_out(size_t o) const { return bounds[ni + o]; }
};

Thresholds MakeThresholds(const typedet::DomainEvalFunction& eval) {
  Thresholds t;
  if (eval.binary()) {
    // Binary distances {0, 1}: the only meaningful inner/outer pair.
    t.bounds = {0.0, 0.5};
    t.ni = 1;
  } else {
    double range = eval.max_distance();
    for (double f : kDInFracs) t.bounds.push_back(f * range);
    for (double f : kDOutFracs) t.bounds.push_back(f * range);
    t.ni = kDInFracs.size();
  }
  // Every d_in is at most every d_out (0.4 * range <= 0.5 * range for a
  // non-negative range), so one byte counts both lists.
  AT_CHECK_MSG(std::is_sorted(t.bounds.begin(), t.bounds.end()),
               "threshold grid is not ascending (negative max_distance?)");
  return t;
}

// Per-eval-function accumulators over the corpus pass: coverage counts per
// (column, d_in), trigger tallies per d_out, and the m-grid buckets the
// candidate grid is scored from.
struct EvalPass {
  size_t ni = 0;
  size_t no = 0;
  size_t eligible_cols = 0;
  std::vector<uint32_t> cov_count;    // num_cols * ni
  std::vector<uint32_t> col_total;    // num_cols
  std::vector<uint32_t> trig_total;   // no
  // bucket_c[i][k], bucket_ct[i][o][k]: columns whose coverage fraction
  // first satisfies m_grid[k] at inner threshold i.
  std::vector<uint32_t> bucket_c;     // ni * num_m
  std::vector<uint32_t> bucket_ct;    // ni * no * num_m
  // middle_band[i][k]: columns whose fraction falls in the ambiguous band
  // [m/2, m) — evidence against a natural domain separation.
  std::vector<uint32_t> middle_band;  // ni * num_m
};

EvalPass MakeEvalPass(size_t num_cols, size_t num_m, size_t ni, size_t no) {
  EvalPass pass;
  pass.ni = ni;
  pass.no = no;
  pass.cov_count.assign(num_cols * ni, 0);
  pass.col_total.assign(num_cols, 0);
  pass.trig_total.assign(no, 0);
  pass.bucket_c.assign(ni * num_m, 0);
  pass.bucket_ct.assign(ni * no * num_m, 0);
  pass.middle_band.assign(ni * num_m, 0);
  return pass;
}

// Folds one eligible column — its inner-ball coverage counts `cov` (one
// per d_in) and outer-ball trigger flags `trig` (one per d_out) — into the
// pass accumulators: bucketing by the largest matching percentage
// satisfied, the middle-band screen, and the trigger tallies.
void FoldColumn(const TrainOptions& options, size_t c, uint32_t total_weight,
                const uint32_t* cov, const uint8_t* trig, EvalPass* pass) {
  const size_t ni = pass->ni;
  const size_t no = pass->no;
  const size_t num_m = options.m_grid.size();
  ++pass->eligible_cols;
  pass->col_total[c] = total_weight;
  for (size_t o = 0; o < no; ++o) {
    if (trig[o] != 0) ++pass->trig_total[o];
  }
  for (size_t i = 0; i < ni; ++i) {
    pass->cov_count[c * ni + i] = cov[i];
    double frac =
        static_cast<double>(cov[i]) / static_cast<double>(total_weight);
    // First m-grid index satisfied (grid is descending).
    size_t k0 = num_m;
    for (size_t k = 0; k < num_m; ++k) {
      if (options.m_grid[k] <= frac + 1e-9) {
        k0 = k;
        break;
      }
    }
    for (size_t k = 0; k < num_m; ++k) {
      double m = options.m_grid[k];
      if (frac + 1e-9 < m && frac >= 0.5 * m) {
        ++pass->middle_band[i * num_m + k];
      }
    }
    if (k0 == num_m) continue;  // not covered at any m
    ++pass->bucket_c[i * num_m + k0];
    for (size_t o = 0; o < no; ++o) {
      if (trig[o] != 0) ++pass->bucket_ct[(i * no + o) * num_m + k0];
    }
  }
}

// Prefix sums over the m axis: covered(i,k) counts all columns whose
// fraction satisfies m_grid[k] (k' <= k satisfied => covered for the
// looser m too).
void PrefixSumBuckets(size_t num_m, EvalPass* pass) {
  for (size_t i = 0; i < pass->ni; ++i) {
    for (size_t k = 1; k < num_m; ++k) {
      pass->bucket_c[i * num_m + k] += pass->bucket_c[i * num_m + k - 1];
    }
    for (size_t o = 0; o < pass->no; ++o) {
      for (size_t k = 1; k < num_m; ++k) {
        pass->bucket_ct[(i * pass->no + o) * num_m + k] +=
            pass->bucket_ct[(i * pass->no + o) * num_m + k - 1];
      }
    }
  }
}

// Corpus pass (DESIGN.md §4k): per-column statistics folded from the
// function's bucket byte for every pool value, one histogram of at most
// 19 bins per column, no per-column profiles.
EvalPass BuildPass(const table::ColumnStore& store, const uint8_t* bytes,
                   const Thresholds& th, const TrainOptions& options) {
  const size_t num_cols = store.num_columns();
  const size_t ni = th.ni;
  const size_t no = th.no();
  EvalPass pass = MakeEvalPass(num_cols, options.m_grid.size(), ni, no);

  std::vector<uint64_t> within(th.bounds.size());
  std::vector<uint32_t> cov(ni);
  std::vector<uint8_t> trig(no);
  for (size_t c = 0; c < num_cols; ++c) {
    table::ColumnStore::ColumnRef col = store.column(c);
    if (col.total_weight == 0 ||
        col.size() < options.min_distinct_values) {
      continue;
    }
    CountWithinBytes(col.ids, col.counts, bytes, th.bounds.size(),
                     within.data());
    for (size_t i = 0; i < ni; ++i) {
      cov[i] = static_cast<uint32_t>(within[i]);
    }
    for (size_t o = 0; o < no; ++o) {
      trig[o] = col.total_weight - within[ni + o] > 0 ? 1 : 0;
    }
    FoldColumn(options, c, static_cast<uint32_t>(col.total_weight),
               cov.data(), trig.data(), &pass);
  }
  PrefixSumBuckets(options.m_grid.size(), &pass);
  return pass;
}

// A candidate that survived the statistical tests; its synthetic-recall
// detection pass is deferred to DetectSynthetic so the candidate phase
// needs no per-candidate clock reads.
struct PendingCandidate {
  size_t i = 0;  // inner-threshold index (for cov_count lookups)
  Sdc sdc;
};

// The candidate grid: enumeration, pruning and statistical assessment.
// Pure arithmetic over the pass accumulators — no clocks, no detection.
std::vector<PendingCandidate> EnumerateCandidates(
    const TrainOptions& options, const Thresholds& th, const EvalPass& pass,
    size_t fi, const typedet::DomainEvalFunction& eval, int64_t min_cov,
    FunctionResult* res) {
  std::vector<PendingCandidate> pending;
  const size_t ni = pass.ni;
  const size_t no = pass.no;
  const size_t num_m = options.m_grid.size();
  const int64_t n_total = static_cast<int64_t>(pass.eligible_cols);
  for (size_t i = 0; i < ni; ++i) {
    for (size_t o = 0; o < no; ++o) {
      if (th.d_out(o) <= th.d_in(i)) continue;
      for (size_t k = 0; k < num_m; ++k) {
        ++res->enumerated;
        int64_t covered = pass.bucket_c[i * num_m + k];
        int64_t covered_trig = pass.bucket_ct[(i * no + o) * num_m + k];
        if (covered < min_cov) {
          ++res->pruned;
          continue;
        }
        stats::ContingencyTable table;
        table.covered_triggered = covered_trig;
        table.covered_not_triggered = covered - covered_trig;
        int64_t trig_all = pass.trig_total[o];
        table.uncovered_triggered = trig_all - covered_trig;
        table.uncovered_not_triggered =
            (n_total - covered) - table.uncovered_triggered;

        double confidence =
            options.use_wilson
                ? stats::SdcConfidence(table, options.wilson_z)
                : (covered > 0
                       ? 1.0 - static_cast<double>(covered_trig) /
                                   static_cast<double>(covered)
                       : 0.0);
        double h = stats::CohensH(table);
        double p = stats::ChiSquaredTestPValue(table);
        bool keep = confidence >= options.min_confidence;
        if (options.use_cohens_h && h < options.h_threshold) {
          keep = false;
        }
        if (options.use_chi_squared && p >= options.p_threshold) {
          keep = false;
        }
        if (options.use_separation_test &&
            static_cast<double>(pass.middle_band[i * num_m + k]) >
                options.max_middle_band_fraction *
                    static_cast<double>(n_total)) {
          keep = false;
        }
        if (!keep) {
          ++res->rejected;
          continue;
        }

        PendingCandidate cand;
        cand.i = i;
        cand.sdc.eval_index = fi;
        cand.sdc.eval = &eval;
        cand.sdc.d_in = th.d_in(i);
        cand.sdc.d_out = th.d_out(o);
        cand.sdc.m = options.m_grid[k];
        cand.sdc.confidence = confidence;
        cand.sdc.fpr = static_cast<double>(covered_trig) /
                       static_cast<double>(n_total);
        cand.sdc.contingency = table;
        cand.sdc.cohens_h = h;
        cand.sdc.chi_squared_p = p;
        pending.push_back(std::move(cand));
      }
    }
  }
  return pending;
}

// Distant-supervision detections (paper Eq. 10) for the surviving
// candidates: its own phase, timed as recall estimation by the caller —
// candidate timing no longer absorbs a clock-pair per survivor. It reads
// the synthetic error values' exact distances, so a NaN distance counts
// as outside every threshold here while the fold counts it as within.
void DetectSynthetic(const TrainOptions& options, const EvalPass& pass,
                     const std::vector<SyntheticColumn>& synthetic,
                     std::span<const double> syn_dist,
                     std::vector<PendingCandidate> pending,
                     FunctionResult* res) {
  const size_t ni = pass.ni;
  for (PendingCandidate& cand : pending) {
    const Sdc& sdc = cand.sdc;
    std::vector<uint32_t> det;
    for (size_t j = 0; j < synthetic.size(); ++j) {
      if (syn_dist[j] <= sdc.d_out) continue;
      size_t b = synthetic[j].base_column;
      double total_with_err =
          static_cast<double>(pass.col_total[b]) + 1.0;
      double cov_with_err =
          static_cast<double>(pass.cov_count[b * ni + cand.i]) +
          (syn_dist[j] <= sdc.d_in ? 1.0 : 0.0);
      if (cov_with_err >= sdc.m * total_with_err - 1e-9) {
        det.push_back(static_cast<uint32_t>(j));
      }
    }
    if (options.drop_zero_recall && det.empty()) {
      ++res->rejected;
      continue;
    }
    res->survivors.push_back(std::move(cand.sdc));
    res->detections.push_back(std::move(det));
  }
}

}  // namespace

std::vector<SyntheticColumn> BuildSyntheticCorpus(const table::Corpus& corpus,
                                                  size_t count, uint64_t seed,
                                                  size_t num_threads) {
  AT_CHECK(corpus.size() >= 2);
  util::Rng rng(seed);
  // Per-column sets of views into the corpus's values, to reject alien
  // values that are actually valid members of the base column.
  std::vector<std::unordered_set<std::string_view>> value_sets(corpus.size());
  util::parallel::Options par_opt;
  par_opt.num_threads = num_threads;
  util::parallel::ParallelFor(
      corpus.size(),
      [&](size_t i) {
        value_sets[i].insert(corpus[i].values.begin(),
                             corpus[i].values.end());
      },
      par_opt);
  std::vector<SyntheticColumn> out;
  out.reserve(count);
  int64_t n = static_cast<int64_t>(corpus.size());
  // If every donor value is already present in every base column (e.g. a
  // corpus of identical columns), no alien value exists and the rejection
  // loop below would spin forever; cap the attempts instead.
  size_t attempts = 0;
  const size_t max_attempts = 1000 * count + 100000;
  while (out.size() < count) {
    AT_CHECK_MSG(++attempts <= max_attempts,
                 "BuildSyntheticCorpus: could not find alien donor values "
                 "(do all corpus columns share the same value set?)");
    size_t base = static_cast<size_t>(rng.UniformInt(0, n - 1));
    size_t donor = static_cast<size_t>(rng.UniformInt(0, n - 1));
    if (base == donor || corpus[base].values.empty() ||
        corpus[donor].values.empty()) {
      continue;
    }
    const std::string& v = rng.Pick(corpus[donor].values);
    if (value_sets[base].count(v) > 0) continue;  // not an error in base
    out.push_back(SyntheticColumn{static_cast<uint32_t>(base), v});
  }
  return out;
}

TrainedModel TrainAutoTest(const table::Corpus& corpus,
                           const typedet::EvalFunctionSet& evals,
                           const TrainOptions& options) {
  AT_CHECK(!corpus.empty());
  AT_CHECK(!options.m_grid.empty());
  for (size_t k = 1; k < options.m_grid.size(); ++k) {
    AT_CHECK_MSG(options.m_grid[k] < options.m_grid[k - 1],
                 "m_grid must be strictly descending");
  }

  // Shared precomputation: distinct values per corpus column.
  util::parallel::Options par_opt;
  par_opt.num_threads = options.num_threads;
  std::vector<table::DistinctValues> distinct(corpus.size());
  util::parallel::ParallelFor(
      corpus.size(),
      [&](size_t i) { distinct[i] = table::Distinct(corpus[i]); }, par_opt);

  std::vector<SyntheticColumn> synthetic =
      BuildSyntheticCorpus(corpus, options.synthetic_count,
                           options.seed ^ 0x5f5f5f5fULL, options.num_threads);

  // Intern every distinct value once into the shared arena-backed pool.
  // Synthetic error values are donor values from the corpus, so they
  // resolve to pool ids and their distances come free with the pool
  // evaluation.
  const table::ColumnStore store = table::ColumnStore::Build(distinct);
  std::vector<uint32_t> syn_ids(synthetic.size());
  for (size_t j = 0; j < synthetic.size(); ++j) {
    uint32_t id = store.Find(synthetic[j].error_value);
    AT_CHECK_MSG(id != table::ColumnStore::kNotFound,
                 "synthetic error value missing from the interned pool");
    syn_ids[j] = id;
  }

  const int64_t min_cov =
      options.enable_pruning
          ? stats::MinCoverageForConfidence(options.min_confidence,
                                            options.wilson_z)
          : 0;

  // One task per chunk in both passes below: per-task cost is highly
  // skewed (embedding work dominates), so let the pool steal at item
  // granularity instead of batching tasks together.
  util::parallel::Options eval_opt = par_opt;
  eval_opt.grain = 1;

  // Each function's threshold grid, the bounds of its bucket bytes.
  std::vector<Thresholds> thresholds(evals.size());
  for (size_t fi = 0; fi < evals.size(); ++fi) {
    thresholds[fi] = MakeThresholds(evals.at(fi));
  }

  // Runs: each run of at most embed::kMaxCentroidGroup consecutive
  // embedding functions of one model (same backend and dynamic type)
  // takes one GroupDistanceFromRows call per block, one pass over the
  // model's rows; every other function is a run of one.
  struct Run {
    size_t first = 0;
    size_t count = 1;
  };
  auto groups_with = [&](size_t lead, size_t fi) {
    const typedet::DomainEvalFunction& a = evals.at(lead);
    const typedet::DomainEvalFunction& b = evals.at(fi);
    return a.family() == typedet::Family::kEmbedding &&
           a.backend() != nullptr && a.backend() == b.backend() &&
           typeid(a) == typeid(b);
  };
  std::vector<Run> runs;
  for (size_t fi = 0; fi < evals.size(); fi += runs.back().count) {
    runs.push_back(Run{fi, 1});
    while (runs.back().count < embed::kMaxCentroidGroup &&
           fi + runs.back().count < evals.size() &&
           groups_with(fi, fi + runs.back().count)) {
      ++runs.back().count;
    }
  }

  // Sources: each shared backend (CTA zoo, embedding model) in
  // first-function order, with its runs and the first function reading it,
  // which computes the rows for all; then one source for the functions
  // without a backend.
  struct Source {
    const typedet::DomainEvalFunction* backend = nullptr;
    std::vector<Run> runs;
  };
  std::vector<Source> sources;
  Source no_backend;
  for (const Run& run : runs) {
    const typedet::DomainEvalFunction& lead = evals.at(run.first);
    if (lead.backend() == nullptr) {
      no_backend.runs.push_back(run);
      continue;
    }
    auto it =
        std::find_if(sources.begin(), sources.end(), [&](const Source& s) {
          return s.backend->backend() == lead.backend();
        });
    if (it == sources.end()) it = sources.insert(it, Source{&lead, {}});
    it->runs.push_back(run);
  }
  if (!no_backend.runs.empty()) sources.push_back(std::move(no_backend));

  // Block pass: one task per (source, 256-value pool block), so every
  // backend computes every block's rows exactly once, into per-thread
  // scratch. The task turns them into each run's distances for the block
  // (the backend-less source loops Distance over it) and each distance at
  // once into the function's bucket byte. Only the bytes, one per
  // (function, pool value), and the exact distances of the synthetic
  // error values outlive the task. The tasks' time counts as candidate
  // generation, like the scoring it feeds.
  const std::span<const std::string_view> pool = store.pool();
  const size_t num_blocks =
      (pool.size() + kEvalBatchSize - 1) / kEvalBatchSize;
  const size_t num_syn = synthetic.size();
  std::vector<uint8_t> bytes(evals.size() * pool.size());
  std::vector<double> syn_dist(evals.size() * num_syn);
  // syn_of_block[b]: the synthetic columns whose error value is in block b.
  std::vector<std::vector<uint32_t>> syn_of_block(num_blocks);
  for (size_t j = 0; j < num_syn; ++j) {
    syn_of_block[syn_ids[j] / kEvalBatchSize].push_back(
        static_cast<uint32_t>(j));
  }
  std::vector<double> block_seconds(sources.size() * num_blocks, 0.0);
  util::parallel::ParallelFor(
      block_seconds.size(),
      [&](size_t task) {
        auto t0 = Clock::now();  // at_lint: disable(R2) wall-clock phase timing
        const Source& source = sources[task / num_blocks];
        const size_t block = task % num_blocks;
        const size_t off = block * kEvalBatchSize;
        const size_t n = std::min(kEvalBatchSize, pool.size() - off);
        const std::span<const std::string_view> values =
            pool.subspan(off, n);
        thread_local typedet::BackendRows rows;
        thread_local std::vector<double> dist(embed::kMaxCentroidGroup *
                                              kEvalBatchSize);
        if (source.backend != nullptr) {
          source.backend->ComputeBackendRows(values, &rows,
                                             util::MemoWrite::kInsert);
        }
        std::array<const typedet::DomainEvalFunction*,
                   embed::kMaxCentroidGroup>
            group;
        std::array<double*, embed::kMaxCentroidGroup> outs;
        for (const Run& run : source.runs) {
          for (size_t g = 0; g < run.count; ++g) {
            group[g] = &evals.at(run.first + g);
            outs[g] = dist.data() + g * kEvalBatchSize;
          }
          if (source.backend != nullptr) {
            group[0]->GroupDistanceFromRows({group.data(), run.count}, rows,
                                            {outs.data(), run.count});
          } else {
            for (size_t v = 0; v < n; ++v) {
              outs[0][v] = group[0]->Distance(values[v]);
            }
          }
          for (size_t g = 0; g < run.count; ++g) {
            const size_t fi = run.first + g;
            const std::span<const double> bounds = thresholds[fi].bounds;
            uint8_t* out = bytes.data() + fi * pool.size() + off;
            for (size_t v = 0; v < n; ++v) {
              out[v] = ThresholdByte(bounds, outs[g][v]);
            }
            for (uint32_t j : syn_of_block[block]) {
              syn_dist[fi * num_syn + j] = outs[g][syn_ids[j] - off];
            }
          }
        }
        auto t1 = Clock::now();  // at_lint: disable(R2) wall-clock phase timing
        block_seconds[task] = Seconds(t0, t1);
      },
      eval_opt);

  // Function pass: one task per function folds its corpus columns from its
  // bytes, enumerates and tests the candidate grid, and runs the
  // synthetic detections.
  std::vector<FunctionResult> results(evals.size());
  util::parallel::ParallelFor(
      evals.size(),
      [&](size_t fi) {
        // Injected allocation/compute fault per evaluation function. The
        // decision is keyed on the function index so which function
        // faults is independent of pool scheduling; retryable codes are
        // retried in place (pure CPU work — no backoff needed), permanent
        // codes or an exhausted budget drop the function (counted) and
        // train on the rest.
        FunctionResult& res = results[fi];
        const size_t budget = options.eval_retry_attempts > 0
                                  ? options.eval_retry_attempts
                                  : 1;
        for (size_t attempt = 0; attempt < budget; ++attempt) {
          auto injected = util::FailpointFiresKeyed(
              util::kFpTrainerEval, fi * 0x9e3779b97f4a7c15ULL + attempt,
              util::StatusCode::kResourceExhausted);
          if (!injected) break;
          if (!util::IsRetryableCode(*injected) || attempt + 1 == budget) {
            res.skipped = true;
            break;
          }
        }
        if (res.skipped) return;

        // Corpus pass, then the candidate grid: enumeration + statistical
        // tests, no clock reads.
        auto t0 = Clock::now();  // at_lint: disable(R2) wall-clock phase timing
        const Thresholds& th = thresholds[fi];
        EvalPass pass =
            BuildPass(store, bytes.data() + fi * pool.size(), th, options);
        std::vector<PendingCandidate> pending = EnumerateCandidates(
            options, th, pass, fi, evals.at(fi), min_cov, &res);
        auto t1 = Clock::now();  // at_lint: disable(R2) wall-clock phase timing
        res.candidate_seconds = Seconds(t0, t1);

        // Deferred detection pass for the survivors, attributed to recall
        // estimation as one block.
        DetectSynthetic(options, pass, synthetic,
                        {syn_dist.data() + fi * num_syn, num_syn},
                        std::move(pending), &res);
        auto t2 = Clock::now();  // at_lint: disable(R2) wall-clock phase timing
        res.synthetic_seconds = Seconds(t1, t2);
      },
      eval_opt);

  // Deterministic merge in function order.
  TrainedModel model;
  model.num_synthetic = synthetic.size();
  for (double seconds : block_seconds) {
    model.timings.candidate_gen_seconds += seconds;
  }
  for (auto& res : results) {
    if (res.skipped) ++model.evals_skipped;
    model.candidates_enumerated += res.enumerated;
    model.candidates_pruned += res.pruned;
    model.candidates_rejected += res.rejected;
    model.timings.candidate_gen_seconds += res.candidate_seconds;
    model.timings.synthetic_seconds += res.synthetic_seconds;
    for (size_t s = 0; s < res.survivors.size(); ++s) {
      model.constraints.push_back(std::move(res.survivors[s]));
      model.detections.push_back(std::move(res.detections[s]));
    }
  }

  model.synthetic_conf_all.assign(model.num_synthetic, 0.0);
  for (size_t r = 0; r < model.constraints.size(); ++r) {
    double c = model.constraints[r].confidence;
    for (uint32_t j : model.detections[r]) {
      model.synthetic_conf_all[j] =
          std::max(model.synthetic_conf_all[j], c);
    }
  }

  // Export the per-run totals through the uniform registry; the counters
  // accumulate across trainings, the phase timers report the latest run.
  metrics::Registry& reg = metrics::Registry::Global();
  reg.GetCounter(metrics::kMTrainerEvalsSkipped)
      .Increment(static_cast<uint64_t>(model.evals_skipped));
  reg.GetCounter(metrics::kMTrainerCandidatesEnumerated)
      .Increment(static_cast<uint64_t>(model.candidates_enumerated));
  reg.GetCounter(metrics::kMTrainerCandidatesPruned)
      .Increment(static_cast<uint64_t>(model.candidates_pruned));
  reg.GetCounter(metrics::kMTrainerCandidatesRejected)
      .Increment(static_cast<uint64_t>(model.candidates_rejected));
  reg.GetGauge(metrics::kMTrainerCandidateGenSeconds)
      .Set(model.timings.candidate_gen_seconds);
  reg.GetGauge(metrics::kMTrainerSyntheticSeconds)
      .Set(model.timings.synthetic_seconds);
  reg.GetGauge(metrics::kMTrainerPoolValues)
      .Set(static_cast<double>(store.pool_size()));
  reg.GetGauge(metrics::kMTrainerPoolArenaBytes)
      .Set(static_cast<double>(store.arena_bytes()));
  return model;
}

}  // namespace autotest::core
