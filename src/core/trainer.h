#ifndef AUTOTEST_CORE_TRAINER_H_
#define AUTOTEST_CORE_TRAINER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "core/sdc.h"
#include "table/table.h"
#include "typedet/eval_functions.h"

namespace autotest::core {

/// Inner/outer thresholds as fractions of each evaluation function's
/// max_distance (paper Section 5.1; binary families collapse to a single
/// pair). Ascending, and every d_in below every d_out, so a function's
/// d_ins followed by its d_outs form one non-decreasing list: the bounds
/// of its bucket bytes (core/threshold_bytes.h).
inline constexpr std::array<double, 8> kDInFracs = {
    0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4};
inline constexpr std::array<double, 10> kDOutFracs = {
    0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95};

/// Offline-training options (paper Sections 5.1-5.2).
struct TrainOptions {
  /// Matching-percentage grid (descending), step 0.05 like the paper.
  std::vector<double> m_grid = {1.0, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7};

  /// Statistical-test thresholds (Section 5.2).
  double h_threshold = 0.8;   // Cohen's h "large effect"
  double p_threshold = 0.05;  // chi-squared significance
  /// Minimal calibrated confidence to keep a candidate. Also implies a
  /// coverage floor via the Appendix-B.1 bound (the paper's worked example
  /// uses c_thres = 0.9); low values would let statistically meaningless
  /// micro-coverage candidates through.
  double min_confidence = 0.8;
  double wilson_z = 1.65;
  /// "Natural separation" screen (operationalizing the paper's Figure 6):
  /// a good inner ball splits corpus columns bimodally — a column is either
  /// mostly inside (in-domain) or mostly outside. Candidates for which more
  /// than `max_middle_band_fraction` of columns have an inner-ball fraction
  /// in the ambiguous middle band [m/2, m) are rejected. This is what
  /// rejects adversarial random-hash functions, whose inner-ball fractions
  /// smear binomially instead of separating.
  bool use_separation_test = true;
  double max_middle_band_fraction = 0.05;
  /// Corpus columns with fewer distinct values are excluded from training
  /// statistics: a near-constant column is trivially "covered" by any
  /// random partition of the value space and carries no evidence (see the
  /// paper's Appendix A on short/low-distinct columns hindering learning).
  size_t min_distinct_values = 5;
  /// Drop candidates whose estimated recall is zero (empty D(r)): they can
  /// never contribute to the recall-maximization objective of Definition 3
  /// and carry no evidence of detecting anything.
  bool drop_zero_recall = true;

  /// Ablation switches (paper Table 8 / Figures 20-21).
  bool use_wilson = true;       // false -> raw ratio confidence estimate
  bool use_cohens_h = true;     // false -> skip effect-size test
  bool use_chi_squared = true;  // false -> skip significance test

  /// Appendix B.1 pruning: skip statistical evaluation of candidates whose
  /// coverage cannot reach min_confidence.
  bool enable_pruning = true;

  /// Synthetic columns for distant-supervision recall estimation
  /// (Section 5.3).
  size_t synthetic_count = 800;

  uint64_t seed = 77;
  size_t num_threads = 0;  // 0 = CPUs in the process's affinity mask

  /// In-memory retry budget for a family whose evaluation pass hits a
  /// transient injected fault (failpoint "trainer.eval" with a retryable
  /// code). Evaluation is pure CPU work, so retries are immediate — no
  /// backoff or sleeping — and the retry decision is keyed on the family
  /// index, independent of pool scheduling. Permanent codes, or exhausting
  /// the budget, degrade to skipping the family (evals_skipped).
  size_t eval_retry_attempts = 3;
};

/// One synthetic error column C(v_e) = C union {v_e} (Section 5.3).
struct SyntheticColumn {
  uint32_t base_column = 0;
  std::string error_value;
};

/// Builds the synthetic corpus: count columns, each pairing a random base
/// column with an alien value from a different column. The output depends
/// only on the corpus, count and seed. num_threads bounds the threads that
/// index the columns' values first: 1 (the default) indexes them on the
/// calling thread, 0 on the CPUs in the process's affinity mask, and
/// TrainAutoTest passes TrainOptions::num_threads.
std::vector<SyntheticColumn> BuildSyntheticCorpus(const table::Corpus& corpus,
                                                  size_t count, uint64_t seed,
                                                  size_t num_threads = 1);

struct TrainTimings {
  double candidate_gen_seconds = 0.0;  // enumeration + statistical tests
  double synthetic_seconds = 0.0;      // recall estimation pass
};

/// Result of offline training: the surviving candidates R_all with their
/// calibrated confidences, plus everything the selection step needs.
struct TrainedModel {
  /// Surviving SDCs ("All-Constraints" in the paper's terminology).
  std::vector<Sdc> constraints;
  /// detections[i] = ids of synthetic columns whose constructed error
  /// constraint i detects (D(r_i), paper Eq. 10).
  std::vector<std::vector<uint32_t>> detections;
  size_t num_synthetic = 0;
  /// conf(C_j, R_all): best confidence over constraints detecting j; used
  /// by Fine-Select's confidence-approximation requirement.
  std::vector<double> synthetic_conf_all;

  // Diagnostics.
  size_t candidates_enumerated = 0;
  size_t candidates_pruned = 0;    // skipped by the Appendix-B.1 bound
  size_t candidates_rejected = 0;  // failed the statistical tests
  /// Evaluation families dropped under injected faults (failpoint
  /// "trainer.eval"): training degrades to the remaining families instead
  /// of crashing; callers should surface a warning when non-zero.
  size_t evals_skipped = 0;
  TrainTimings timings;
};

/// Runs offline training (candidate generation + statistical assessment +
/// recall estimation) against the corpus. Deterministic in options.seed.
/// The corpus pass is columnar (DESIGN.md §4k): every distinct corpus
/// value is interned once into a shared arena-backed pool. A block pass
/// then computes each shared backend's (DomainEvalFunction::backend())
/// rows once per 256-value block of the pool, turns them into every
/// function's distances for the block, or scores the block value by value
/// through Distance for the functions without a backend, and keeps one
/// bucket byte per (function, pool value). A function pass folds each
/// function's corpus columns from its bytes.
TrainedModel TrainAutoTest(const table::Corpus& corpus,
                           const typedet::EvalFunctionSet& evals,
                           const TrainOptions& options = {});

}  // namespace autotest::core

#endif  // AUTOTEST_CORE_TRAINER_H_
