#include "reference_trainer.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/sdc.h"
#include "stats/statistics.h"

namespace autotest::core {

namespace {

// What one corpus column contributes to the statistics of one evaluation
// function f: its weighted value count, the count within each inner
// threshold d_in and whether any value lies beyond each outer threshold
// d_out. Columns excluded from training contribute zeros.
struct ColumnCounts {
  size_t total = 0;
  std::vector<size_t> within;  // per d_in
  std::vector<bool> beyond;    // per d_out
};

// Coverage fraction test P(C) at matching percentage m, with the trainer's
// 1e-9 slack.
bool Covers(double frac, double m) { return m <= frac + 1e-9; }

}  // namespace

TrainedModel ReferenceTrainAutoTest(const table::Corpus& corpus,
                                    const typedet::EvalFunctionSet& evals,
                                    const TrainOptions& options) {
  // Synthetic error columns C(v_e) = C ∪ {v_e} (Section 5.3), seeded as
  // TrainAutoTest seeds them.
  const std::vector<SyntheticColumn> synthetic = BuildSyntheticCorpus(
      corpus, options.synthetic_count, options.seed ^ 0x5f5f5f5fULL);

  // Near-constant columns carry no evidence and are left out.
  std::vector<table::DistinctValues> distinct(corpus.size());
  std::vector<bool> eligible(corpus.size(), false);
  int64_t n_total = 0;
  for (size_t c = 0; c < corpus.size(); ++c) {
    distinct[c] = table::Distinct(corpus[c]);
    eligible[c] = distinct[c].total != 0 &&
                  distinct[c].size() >= options.min_distinct_values;
    if (eligible[c]) ++n_total;
  }
  // Appendix B.1: candidates covering fewer columns cannot reach
  // min_confidence.
  const int64_t min_cov =
      options.enable_pruning
          ? stats::MinCoverageForConfidence(options.min_confidence,
                                            options.wilson_z)
          : 0;

  TrainedModel model;
  model.num_synthetic = synthetic.size();
  for (size_t fi = 0; fi < evals.size(); ++fi) {
    const typedet::DomainEvalFunction& eval = evals.at(fi);
    // Threshold grid (Section 5.1); a binary function only separates
    // distance 0 from distance 1.
    std::vector<double> d_ins = {0.0};
    std::vector<double> d_outs = {0.5};
    if (!eval.binary()) {
      d_ins.clear();
      d_outs.clear();
      for (double f : kDInFracs) {
        d_ins.push_back(f * eval.max_distance());
      }
      for (double f : kDOutFracs) {
        d_outs.push_back(f * eval.max_distance());
      }
    }

    std::vector<ColumnCounts> counts(corpus.size());
    for (size_t c = 0; c < corpus.size(); ++c) {
      ColumnCounts& cc = counts[c];
      cc.within.assign(d_ins.size(), 0);
      cc.beyond.assign(d_outs.size(), false);
      if (!eligible[c]) continue;
      ColumnDistanceProfile profile = ComputeProfile(eval, distinct[c]);
      cc.total = profile.total_weight;
      for (size_t i = 0; i < d_ins.size(); ++i) {
        cc.within[i] = profile.CountWithin(d_ins[i]);
      }
      for (size_t o = 0; o < d_outs.size(); ++o) {
        cc.beyond[o] = profile.CountBeyond(d_outs[o]) > 0;
      }
    }
    std::vector<double> syn_dist(synthetic.size());
    for (size_t j = 0; j < synthetic.size(); ++j) {
      syn_dist[j] = eval.Distance(synthetic[j].error_value);
    }

    for (size_t i = 0; i < d_ins.size(); ++i) {
      for (size_t o = 0; o < d_outs.size(); ++o) {
        if (d_outs[o] <= d_ins[i]) continue;
        for (double m : options.m_grid) {
          ++model.candidates_enumerated;
          // Contingency table over the eligible columns (Section 5.2):
          // covered = P holds, triggered = S flags some value. Columns
          // whose fraction lands in [m/2, m) count against a natural
          // domain separation.
          int64_t covered = 0;
          int64_t covered_trig = 0;
          int64_t trig_all = 0;
          int64_t middle_band = 0;
          for (size_t c = 0; c < corpus.size(); ++c) {
            if (!eligible[c]) continue;
            const ColumnCounts& cc = counts[c];
            double frac = static_cast<double>(cc.within[i]) /
                          static_cast<double>(cc.total);
            if (cc.beyond[o]) ++trig_all;
            if (Covers(frac, m)) {
              ++covered;
              if (cc.beyond[o]) ++covered_trig;
            } else if (frac >= 0.5 * m) {
              ++middle_band;
            }
          }
          if (covered < min_cov) {
            ++model.candidates_pruned;
            continue;
          }
          stats::ContingencyTable table;
          table.covered_triggered = covered_trig;
          table.covered_not_triggered = covered - covered_trig;
          table.uncovered_triggered = trig_all - covered_trig;
          table.uncovered_not_triggered =
              (n_total - covered) - table.uncovered_triggered;
          double confidence =
              options.use_wilson
                  ? stats::SdcConfidence(table, options.wilson_z)
                  : (covered > 0 ? 1.0 - static_cast<double>(covered_trig) /
                                             static_cast<double>(covered)
                                 : 0.0);
          double h = stats::CohensH(table);
          double p = stats::ChiSquaredTestPValue(table);
          bool keep = confidence >= options.min_confidence;
          if (options.use_cohens_h && h < options.h_threshold) keep = false;
          if (options.use_chi_squared && p >= options.p_threshold) {
            keep = false;
          }
          if (options.use_separation_test &&
              static_cast<double>(middle_band) >
                  options.max_middle_band_fraction *
                      static_cast<double>(n_total)) {
            keep = false;
          }
          if (!keep) {
            ++model.candidates_rejected;
            continue;
          }

          // D(r), paper Eq. 10: synthetic column j is detected when its
          // alien value lies beyond d_out while P still holds on the base
          // column plus that value.
          std::vector<uint32_t> det;
          for (size_t j = 0; j < synthetic.size(); ++j) {
            if (syn_dist[j] <= d_outs[o]) continue;
            const ColumnCounts& base = counts[synthetic[j].base_column];
            double total_with_err = static_cast<double>(base.total) + 1.0;
            double cov_with_err = static_cast<double>(base.within[i]) +
                                  (syn_dist[j] <= d_ins[i] ? 1.0 : 0.0);
            if (cov_with_err >= m * total_with_err - 1e-9) {
              det.push_back(static_cast<uint32_t>(j));
            }
          }
          if (options.drop_zero_recall && det.empty()) {
            ++model.candidates_rejected;
            continue;
          }

          Sdc sdc;
          sdc.eval_index = fi;
          sdc.eval = &eval;
          sdc.d_in = d_ins[i];
          sdc.d_out = d_outs[o];
          sdc.m = m;
          sdc.confidence = confidence;
          sdc.fpr = static_cast<double>(covered_trig) /
                    static_cast<double>(n_total);
          sdc.contingency = table;
          sdc.cohens_h = h;
          sdc.chi_squared_p = p;
          model.constraints.push_back(sdc);
          model.detections.push_back(std::move(det));
        }
      }
    }
  }

  // conf(C_j, R_all): the best confidence among rules detecting j.
  model.synthetic_conf_all.assign(model.num_synthetic, 0.0);
  for (size_t r = 0; r < model.constraints.size(); ++r) {
    for (uint32_t j : model.detections[r]) {
      model.synthetic_conf_all[j] = std::max(model.synthetic_conf_all[j],
                                             model.constraints[r].confidence);
    }
  }
  return model;
}

}  // namespace autotest::core
