#include "lp/revised_simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace autotest::lp {

namespace {

constexpr double kEps = 1e-9;
// Relative scale of the anti-degeneracy rhs shift applied during the main
// phase-2 run of a cold solve (see SolveFromScratch).
constexpr double kDegenShift = 1e-7;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr uint32_t kNoPos = 0xffffffffu;
// Eta entries below this magnitude are dropped; the periodic
// refactorization bounds the accumulated error.
constexpr double kEtaDropTol = 1e-13;
// Product-form eta vectors accumulated between LU refactorizations.
constexpr size_t kRefactorInterval = 64;
// Absolute pivot threshold below which a basis is declared singular.
constexpr double kPivotTol = 1e-11;

ConstraintType FlipType(ConstraintType t) {
  switch (t) {
    case ConstraintType::kLessEq:
      return ConstraintType::kGreaterEq;
    case ConstraintType::kGreaterEq:
      return ConstraintType::kLessEq;
    case ConstraintType::kEqual:
      return ConstraintType::kEqual;
  }
  return t;
}

}  // namespace

RevisedSimplex::RevisedSimplex(const LinearProgram& lp) {
  AT_CHECK(lp.objective.size() == lp.num_vars);
  AT_CHECK(lp.upper_bounds.size() == lp.num_vars);
  m_ = lp.constraints.size();
  row_sign_.assign(m_, 1.0);
  rhs_.assign(m_, 0.0);

  std::vector<ConstraintType> type(m_, ConstraintType::kLessEq);
  size_t num_artificial = 0;
  for (size_t i = 0; i < m_; ++i) {
    const Constraint& c = lp.constraints[i];
    double sign = c.rhs < 0 ? -1.0 : 1.0;
    row_sign_[i] = sign;
    rhs_[i] = sign * c.rhs;
    type[i] = sign < 0 ? FlipType(c.type) : c.type;
    if (type[i] != ConstraintType::kLessEq) ++num_artificial;
  }
  art_begin_ = m_;
  struct_begin_ = m_ + num_artificial;

  cols_.resize(struct_begin_);
  obj_.assign(struct_begin_, 0.0);
  upper_.assign(struct_begin_, kInf);
  vstate_.assign(struct_begin_, VState::kAtLower);
  basis_pos_.assign(struct_begin_, kNoPos);

  size_t art = art_begin_;
  for (size_t i = 0; i < m_; ++i) {
    switch (type[i]) {
      case ConstraintType::kLessEq:
        cols_[i].Push(static_cast<uint32_t>(i), 1.0);
        break;
      case ConstraintType::kGreaterEq:
        cols_[i].Push(static_cast<uint32_t>(i), -1.0);
        cols_[art].Push(static_cast<uint32_t>(i), 1.0);
        ++art;
        break;
      case ConstraintType::kEqual:
        // Unused slack pinned at zero, exactly like the dense tableau.
        cols_[i].Push(static_cast<uint32_t>(i), 1.0);
        upper_[i] = 0.0;
        cols_[art].Push(static_cast<uint32_t>(i), 1.0);
        ++art;
        break;
    }
  }

  // Gather the structural columns (column-major) from the row-major
  // constraint terms.
  std::vector<std::vector<std::pair<size_t, double>>> per_var(lp.num_vars);
  for (size_t i = 0; i < m_; ++i) {
    for (const auto& [var, coef] : lp.constraints[i].terms) {
      AT_CHECK(var < lp.num_vars);
      per_var[var].push_back({i, coef});
    }
  }
  for (size_t j = 0; j < lp.num_vars; ++j) {
    AddStructural(lp.objective[j], lp.upper_bounds[j], per_var[j]);
  }
}

void RevisedSimplex::SetColumn(
    size_t internal_j, const std::vector<std::pair<size_t, double>>& terms) {
  // Sum duplicate rows and apply the row sign normalization.
  rows_dirty_ = true;
  std::vector<std::pair<size_t, double>> sorted = terms;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  SparseColumn& col = cols_[internal_j];
  col.Clear();
  size_t i = 0;
  while (i < sorted.size()) {
    size_t row = sorted[i].first;
    AT_CHECK(row < m_);
    double v = 0.0;
    while (i < sorted.size() && sorted[i].first == row) {
      v += sorted[i].second;
      ++i;
    }
    if (v != 0.0) col.Push(static_cast<uint32_t>(row), row_sign_[row] * v);
  }
}

size_t RevisedSimplex::AddStructural(
    double objective, double upper,
    const std::vector<std::pair<size_t, double>>& terms) {
  size_t var = num_struct_++;
  cols_.emplace_back();
  obj_.push_back(objective);
  upper_.push_back(upper);
  vstate_.push_back(VState::kAtLower);
  basis_pos_.push_back(kNoPos);
  SetColumn(InternalOf(var), terms);
  return var;
}

void RevisedSimplex::ReplaceStructural(
    size_t var, double objective, double upper,
    const std::vector<std::pair<size_t, double>>& terms) {
  AT_CHECK(var < num_struct_);
  size_t j = InternalOf(var);
  if (vstate_[j] != VState::kAtLower) {
    // The basis (or the nonbasic contribution to xB) depended on the old
    // column; force a cold restart on the next solve.
    basis_valid_ = false;
    factor_valid_ = false;
  }
  obj_[j] = objective;
  upper_[j] = upper;
  SetColumn(j, terms);
}

void RevisedSimplex::ResetToInitialBasis() {
  basis_.assign(m_, 0);
  std::fill(basis_pos_.begin(), basis_pos_.end(), kNoPos);
  std::fill(vstate_.begin(), vstate_.end(), VState::kAtLower);
  // Un-pin the artificials for a fresh phase 1.
  for (size_t j = art_begin_; j < struct_begin_; ++j) upper_[j] = kInf;
  artificials_pinned_ = false;

  // Crash pass (Bixby-style, restricted to the safe case): a structural
  // singleton column can seed the basis of its row instead of the slack
  // when its basic value rhs/a lands inside [0, upper]. The basis stays
  // diagonal, hence trivially nonsingular and primal feasible, and the
  // pivots that would otherwise pull these columns in are saved. Prefer
  // the highest objective, then the lowest column index (deterministic).
  std::vector<uint32_t> crash(m_, kNoPos);
  for (size_t j = struct_begin_; j < cols_.size(); ++j) {
    if (cols_[j].nnz() != 1) continue;
    uint32_t r = cols_[j].rows[0];
    double a = cols_[j].vals[0];
    if (a <= 0.0) continue;
    double value = rhs_[r] / a;
    if (value < 0.0 || value > upper_[j]) continue;
    uint32_t cur = crash[r];
    if (cur == kNoPos || obj_[j] > obj_[cur]) crash[r] = static_cast<uint32_t>(j);
  }

  xB_ = rhs_;
  size_t art = art_begin_;
  for (size_t i = 0; i < m_; ++i) {
    // LE rows have a +1 basic slack; GE/EQ rows carry an artificial. The
    // slack column of a GE row has coefficient -1, EQ slacks are pinned —
    // both are recognizable from the stored column/upper.
    bool needs_artificial =
        (cols_[i].nnz() == 1 && cols_[i].vals[0] < 0.0) || upper_[i] == 0.0;
    uint32_t b;
    if (needs_artificial) {
      b = static_cast<uint32_t>(art++);
    } else if (crash[i] != kNoPos) {
      b = crash[i];
      xB_[i] = rhs_[i] / cols_[b].vals[0];
    } else {
      b = static_cast<uint32_t>(i);
    }
    basis_[i] = b;
    basis_pos_[b] = static_cast<uint32_t>(i);
    vstate_[b] = VState::kBasic;
  }
  AT_CHECK(art == struct_begin_);
  etas_.clear();
  factor_valid_ = false;
  basis_valid_ = false;
}

bool RevisedSimplex::Refactorize() {
  std::vector<const SparseColumn*> cols(m_);
  for (size_t k = 0; k < m_; ++k) cols[k] = &cols_[basis_[k]];
  if (!lu_.Factorize(cols, kPivotTol)) return false;
  etas_.clear();
  eta_nnz_ = 0;
  factor_valid_ = true;
  // Recompute the basic values from scratch: xB = B^{-1} (b - N_u u),
  // killing the error accumulated by incremental updates.
  std::vector<double>& r = rhs_work_;
  r = rhs_;
  for (size_t j = 0; j < cols_.size(); ++j) {
    if (vstate_[j] != VState::kAtUpper || upper_[j] == 0.0) continue;
    const SparseColumn& col = cols_[j];
    for (size_t i = 0; i < col.nnz(); ++i) {
      r[col.rows[i]] -= col.vals[i] * upper_[j];
    }
  }
  lu_.SolveForward(r, &xB_);
  return true;
}

void RevisedSimplex::Ftran(std::vector<double>* w) const {
  lu_.SolveForward(*w, &ftran_buf_);
  std::vector<double>& y = ftran_buf_;
  for (const Eta& e : etas_) {
    double zp = y[e.pos] / e.d_pos;
    if (zp != 0.0) {
      for (const auto& [i, di] : e.others) y[i] -= di * zp;
    }
    y[e.pos] = zp;
  }
  w->swap(y);
}

void RevisedSimplex::Btran(std::vector<double>* y) const {
  std::vector<double>& c = *y;
  for (size_t t = etas_.size(); t-- > 0;) {
    const Eta& e = etas_[t];
    double s = c[e.pos];
    for (const auto& [i, di] : e.others) s -= di * c[i];
    c[e.pos] = s / e.d_pos;
  }
  lu_.SolveTranspose(c, &btran_buf_);
  y->swap(btran_buf_);
}

SolveStatus RevisedSimplex::RunSimplex(const std::vector<double>& cost,
                                       bool allow_artificial_entering) {
  const size_t n_total = cols_.size();
  const size_t max_iter = 200 * (m_ + n_total) + 1000;
  const size_t bland_after = 20 * (m_ + n_total) + 200;

  // Reduced costs are maintained across pivots via the pivot row (the same
  // sweep that feeds the devex weights) and recomputed from pi = B^{-T} c_B
  // at every refactorization, which bounds the drift. Devex reference
  // weights start at 1 and persist across refactorizations — they encode
  // pivot history, not the factorization.
  auto recompute_reduced_costs = [&]() {
    cb_buf_.assign(m_, 0.0);
    for (size_t k = 0; k < m_; ++k) cb_buf_[k] = Cost(cost, basis_[k]);
    pi_buf_ = cb_buf_;
    Btran(&pi_buf_);
    d_buf_.assign(n_total, 0.0);
    for (size_t j = 0; j < n_total; ++j) {
      if (vstate_[j] == VState::kBasic || upper_[j] == 0.0) continue;
      const SparseColumn& col = cols_[j];
      double d = Cost(cost, j);
      for (size_t i = 0; i < col.nnz(); ++i) {
        d -= pi_buf_[col.rows[i]] * col.vals[i];
      }
      d_buf_[j] = d;
    }
  };
  devex_buf_.assign(n_total, 1.0);
  bool d_valid = false;

  if (rows_dirty_) {
    rows_.resize(m_);
    for (auto& r : rows_) r.Clear();
    for (size_t j = 0; j < n_total; ++j) {
      const SparseColumn& col = cols_[j];
      for (size_t i = 0; i < col.nnz(); ++i) {
        rows_[col.rows[i]].Push(static_cast<uint32_t>(j), col.vals[i]);
      }
    }
    rows_dirty_ = false;
  }
  alpha_buf_.assign(n_total, 0.0);
  alpha_mark_.assign(n_total, 0);

  for (size_t iter = 0; iter < max_iter; ++iter) {
    ++total_iterations_;
    // Refactorize on cadence, or early once the eta file costs more to
    // apply than a fresh factorization would (dense etas accumulate fast
    // on degenerate instances).
    if (!factor_valid_ || etas_.size() >= kRefactorInterval ||
        eta_nnz_ > 4 * (lu_.factor_nnz() + m_)) {
      if (!Refactorize()) return SolveStatus::kIterationLimit;
      ++total_refactorizations_;
      d_valid = false;
    }
    const bool bland = iter >= bland_after;
    // Bland's anti-cycling guarantee needs exact reduced costs, so the
    // maintained ones are not trusted once the fallback engages.
    if (bland) d_valid = false;
    bool just_recomputed = !d_valid;
    if (!d_valid) {
      recompute_reduced_costs();
      d_valid = true;
    }

    // Devex pricing over the maintained reduced costs: maximize
    // improvement^2 / weight (ties toward the lowest index).
    size_t e = n_total;
    double best = 0.0;
    for (size_t j = 0; j < n_total; ++j) {
      if (vstate_[j] == VState::kBasic) continue;
      if (upper_[j] == 0.0) continue;  // pinned
      if (!allow_artificial_entering && j >= art_begin_ && j < struct_begin_) {
        continue;
      }
      double improvement =
          vstate_[j] == VState::kAtUpper ? -d_buf_[j] : d_buf_[j];
      if (improvement > kEps) {
        if (bland) {
          e = j;
          break;
        }
        double score = improvement * improvement / devex_buf_[j];
        if (score > best) {
          best = score;
          e = j;
        }
      }
    }
    if (e == n_total) {
      if (just_recomputed) return SolveStatus::kOptimal;
      // The maintained reduced costs may have drifted; confirm optimality
      // against freshly computed ones before declaring it.
      d_valid = false;
      continue;
    }

    const double sigma = vstate_[e] == VState::kAtUpper ? -1.0 : 1.0;

    // w = B^{-1} a_e.
    w_buf_.assign(m_, 0.0);
    {
      const SparseColumn& col = cols_[e];
      for (size_t i = 0; i < col.nnz(); ++i) w_buf_[col.rows[i]] = col.vals[i];
    }
    Ftran(&w_buf_);

    // Guard against drift in the maintained reduced cost: the exact value
    // is a cheap dot product once w is available. A pick that is not truly
    // improving forces a full recompute instead of a bogus pivot.
    double d_exact = Cost(cost, e);
    for (size_t k = 0; k < m_; ++k) d_exact -= cb_buf_[k] * w_buf_[k];
    if ((vstate_[e] == VState::kAtUpper ? -d_exact : d_exact) <= kEps) {
      d_buf_[e] = d_exact;
      d_valid = false;
      continue;
    }
    d_buf_[e] = d_exact;

    // Ratio test (same semantics and tie-breaks as the dense tableau).
    double t_best = upper_[e] == kInf ? kInf : upper_[e];
    size_t leave_row = m_;  // m_ = none (bound flip)
    bool leave_to_upper = false;
    for (size_t i = 0; i < m_; ++i) {
      double a = sigma * w_buf_[i];
      double t;
      bool to_upper;
      if (a > kEps) {
        t = std::max(0.0, xB_[i]) / a;
        to_upper = false;
      } else if (a < -kEps && upper_[basis_[i]] != kInf) {
        t = std::max(0.0, upper_[basis_[i]] - xB_[i]) / (-a);
        to_upper = true;
      } else {
        continue;
      }
      bool better = t < t_best - kEps;
      bool tie = !better && t < t_best + kEps;
      if (better || (tie && (leave_row == m_ ||
                             (bland && leave_row != m_ &&
                              basis_[i] < basis_[leave_row])))) {
        t_best = t;
        leave_row = i;
        leave_to_upper = to_upper;
      }
    }
    if (t_best == kInf) return SolveStatus::kUnbounded;

    if (leave_row == m_) {
      // Bound flip: the entering variable jumps to its other bound. The
      // basis is unchanged, so reduced costs and devex weights stay valid.
      for (size_t i = 0; i < m_; ++i) {
        if (w_buf_[i] != 0.0) xB_[i] -= sigma * upper_[e] * w_buf_[i];
      }
      vstate_[e] = vstate_[e] == VState::kAtUpper ? VState::kAtLower
                                                  : VState::kAtUpper;
      continue;
    }

    // Pivot row rho = B^{-T} e_r: feeds both the reduced-cost update
    // d_j -= (d_e / alpha_e) alpha_j and the devex weight update, with
    // alpha_j = rho . a_j gathered row-major over the nonzeros of rho.
    rho_buf_.assign(m_, 0.0);
    rho_buf_[leave_row] = 1.0;
    Btran(&rho_buf_);
    const double alpha_e = w_buf_[leave_row];
    const double ratio = d_exact / alpha_e;
    const double ge_over_ae2 = devex_buf_[e] / (alpha_e * alpha_e);
    touched_.clear();
    for (size_t r = 0; r < m_; ++r) {
      double rv = rho_buf_[r];
      if (rv == 0.0) continue;
      const SparseColumn& row = rows_[r];
      for (size_t i = 0; i < row.nnz(); ++i) {
        uint32_t j = row.rows[i];
        if (!alpha_mark_[j]) {
          alpha_mark_[j] = 1;
          alpha_buf_[j] = 0.0;
          touched_.push_back(j);
        }
        alpha_buf_[j] += rv * row.vals[i];
      }
    }
    for (uint32_t j : touched_) {
      alpha_mark_[j] = 0;
      if (vstate_[j] == VState::kBasic || upper_[j] == 0.0) continue;
      double alpha = alpha_buf_[j];
      if (alpha == 0.0) continue;
      d_buf_[j] -= ratio * alpha;
      double g = alpha * alpha * ge_over_ae2;
      if (g > devex_buf_[j]) devex_buf_[j] = g;
    }

    const uint32_t l = basis_[leave_row];
    const double entering_value =
        (vstate_[e] == VState::kAtUpper ? upper_[e] : 0.0) + sigma * t_best;
    for (size_t i = 0; i < m_; ++i) {
      if (i != leave_row) xB_[i] -= sigma * t_best * w_buf_[i];
    }
    xB_[leave_row] = entering_value;

    // Product-form update: record eta for w, then swap basis roles.
    Eta eta;
    eta.pos = static_cast<uint32_t>(leave_row);
    eta.d_pos = w_buf_[leave_row];
    AT_CHECK(std::fabs(eta.d_pos) > 1e-12);
    for (size_t i = 0; i < m_; ++i) {
      if (i != leave_row && std::fabs(w_buf_[i]) > kEtaDropTol) {
        eta.others.push_back({static_cast<uint32_t>(i), w_buf_[i]});
      }
    }
    eta_nnz_ += eta.others.size() + 1;
    etas_.push_back(std::move(eta));

    basis_[leave_row] = static_cast<uint32_t>(e);
    basis_pos_[e] = static_cast<uint32_t>(leave_row);
    vstate_[e] = VState::kBasic;
    basis_pos_[l] = kNoPos;
    vstate_[l] = (leave_to_upper && upper_[l] != kInf) ? VState::kAtUpper
                                                       : VState::kAtLower;
    d_buf_[e] = 0.0;
    d_buf_[l] = -ratio;
    devex_buf_[l] = std::max(ge_over_ae2, 1.0);
    cb_buf_[leave_row] = Cost(cost, e);
  }
  return SolveStatus::kIterationLimit;
}

SolveStatus RevisedSimplex::SolveFromScratch() {
  ResetToInitialBasis();
  if (struct_begin_ > art_begin_) {
    // Phase 1: maximize -sum(artificials).
    cost_buf_.assign(cols_.size(), 0.0);
    for (size_t j = art_begin_; j < struct_begin_; ++j) cost_buf_[j] = -1.0;
    SolveStatus s = RunSimplex(cost_buf_, /*allow_artificial_entering=*/true);
    if (s != SolveStatus::kOptimal) return s;
    double infeasibility = 0.0;
    for (size_t i = 0; i < m_; ++i) {
      if (basis_[i] >= art_begin_ && basis_[i] < struct_begin_) {
        infeasibility += std::fabs(xB_[i]);
      }
    }
    if (infeasibility > 1e-6) return SolveStatus::kInfeasible;
    // Keep any residual basic artificials pinned at zero; the ratio test
    // forces them out (or keeps them degenerate) in phase 2.
    for (size_t j = art_begin_; j < struct_begin_; ++j) {
      upper_[j] = 0.0;
      if (vstate_[j] == VState::kAtUpper) vstate_[j] = VState::kAtLower;
    }
  }
  artificials_pinned_ = true;
  // Anti-degeneracy shift: zero-rhs rows make most phase-2 pivots
  // degenerate (zero step length), so the main run works on a rhs nudged
  // by a tiny deterministic per-row amount that breaks the ties. A final
  // run on the exact rhs restores the true optimum; it starts from the
  // perturbed optimal basis and almost always needs only a handful of
  // pivots. Infeasibility was already decided by phase 1 on exact data,
  // and an unbounded ray is rhs-independent, so those statuses pass
  // straight through.
  std::vector<double> rhs_saved = rhs_;
  for (size_t i = 0; i < m_; ++i) {
    double jitter =
        static_cast<double>(SplitMix64(i) >> 11) * 0x1.0p-53;
    rhs_[i] += kDegenShift * (1.0 + jitter) * (1.0 + rhs_[i]);
  }
  factor_valid_ = false;  // recompute xB against the shifted rhs
  SolveStatus s = RunSimplex(obj_, /*allow_artificial_entering=*/false);
  rhs_ = std::move(rhs_saved);
  factor_valid_ = false;  // recompute xB against the exact rhs
  if (s == SolveStatus::kOptimal) {
    s = RunSimplex(obj_, /*allow_artificial_entering=*/false);
  }
  basis_valid_ = s == SolveStatus::kOptimal;
  return s;
}

SolveStatus RevisedSimplex::ReOptimize() {
  if (!basis_valid_) return SolveFromScratch();
  SolveStatus s = RunSimplex(obj_, /*allow_artificial_entering=*/false);
  basis_valid_ = s == SolveStatus::kOptimal;
  return s;
}

void RevisedSimplex::Extract(Solution* out) const {
  out->values.assign(num_struct_, 0.0);
  out->objective = 0.0;
  for (size_t j = 0; j < num_struct_; ++j) {
    size_t in = struct_begin_ + j;
    double v = 0.0;
    switch (vstate_[in]) {
      case VState::kAtLower:
        v = 0.0;
        break;
      case VState::kAtUpper:
        v = upper_[in];
        break;
      case VState::kBasic:
        v = xB_[basis_pos_[in]];
        break;
    }
    out->values[j] = v;
    out->objective += obj_[in] * v;
  }
}

}  // namespace autotest::lp
