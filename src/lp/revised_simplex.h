#ifndef AUTOTEST_LP_REVISED_SIMPLEX_H_
#define AUTOTEST_LP_REVISED_SIMPLEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lp/simplex.h"
#include "lp/sparse_lu.h"

namespace autotest::lp {

/// Sparse revised simplex engine: column-major sparse constraint storage,
/// LU-factorized basis with a product-form eta file and periodic
/// refactorization, devex pricing over maintained reduced costs with a
/// Bland anti-cycling fallback, and native variable upper bounds (bound
/// flips).
///
/// Internal column layout: row slacks occupy [0, m), artificials
/// [m, m + na), and structural (external) variables grow from m + na.
/// Structural columns may be appended (and, while nonbasic at their lower
/// bound, replaced) between solves; the factorized basis stays valid, so
/// `ReOptimize` re-prices from the previous optimum instead of restarting
/// the two-phase method.
class RevisedSimplex {
 public:
  explicit RevisedSimplex(const LinearProgram& lp);

  /// Appends a structural column. `terms` holds (constraint row, coef)
  /// pairs in external row ids; duplicates are summed. The new variable
  /// enters nonbasic at its lower bound, so a previously optimal basis
  /// stays primal feasible. Returns the external variable index.
  size_t AddStructural(double objective, double upper,
                       const std::vector<std::pair<size_t, double>>& terms);

  /// Rewrites structural column `var` in place. If the variable is
  /// currently basic or sitting at its upper bound the current basis no
  /// longer matches the data, and the next solve restarts from scratch;
  /// otherwise warm starts remain valid.
  void ReplaceStructural(size_t var, double objective, double upper,
                         const std::vector<std::pair<size_t, double>>& terms);

  /// Full two-phase solve from the initial slack/artificial basis.
  SolveStatus SolveFromScratch();

  /// Re-optimizes from the current basis (valid only after an optimal
  /// solve whose basis was not invalidated); falls back to
  /// SolveFromScratch otherwise.
  SolveStatus ReOptimize();

  /// Writes structural values and the phase-2 objective. Valid only after
  /// a solve that returned kOptimal.
  void Extract(Solution* out) const;

  size_t num_rows() const { return m_; }
  size_t num_structurals() const { return num_struct_; }
  /// True when the last solve left an optimal basis a later ReOptimize
  /// can warm-start from.
  bool basis_valid() const { return basis_valid_; }

  /// Diagnostics, cumulative since construction: simplex iterations
  /// (pivots + bound flips) and LU refactorizations.
  size_t total_iterations() const { return total_iterations_; }
  size_t total_refactorizations() const { return total_refactorizations_; }
  /// Stored nonzeros of the most recent LU factorization.
  size_t last_factor_nnz() const { return lu_.factor_nnz(); }

 private:
  enum class VState : uint8_t { kAtLower, kAtUpper, kBasic };
  struct Eta {
    uint32_t pos = 0;  // basis position replaced
    double d_pos = 1.0;
    std::vector<std::pair<uint32_t, double>> others;  // (position, d_i)
  };

  size_t InternalOf(size_t var) const { return struct_begin_ + var; }
  double Cost(const std::vector<double>& cost, size_t j) const {
    return j < cost.size() ? cost[j] : 0.0;
  }
  void SetColumn(size_t internal_j,
                 const std::vector<std::pair<size_t, double>>& terms);

  void ResetToInitialBasis();
  bool Refactorize();           // rebuild LU + xB; false if singular
  void Ftran(std::vector<double>* w) const;  // row space in, positions out
  void Btran(std::vector<double>* y) const;  // positions in, row space out
  SolveStatus RunSimplex(const std::vector<double>& cost,
                         bool allow_artificial_entering);

  size_t m_ = 0;            // rows
  size_t num_struct_ = 0;   // external variables
  size_t art_begin_ = 0;    // == m_
  size_t struct_begin_ = 0; // m_ + number of artificials
  std::vector<double> row_sign_;
  std::vector<double> rhs_;  // normalized, >= 0

  std::vector<SparseColumn> cols_;  // internal column id -> sparse column
  // Row-major mirror of cols_ (row -> (internal column, coef)), rebuilt
  // lazily per solve; lets the pivot-row sweep walk only the rows where
  // rho is nonzero instead of every column.
  std::vector<SparseColumn> rows_;
  bool rows_dirty_ = true;
  std::vector<double> obj_;         // phase-2 cost per internal column
  std::vector<double> upper_;

  std::vector<uint32_t> basis_;     // position -> internal column
  std::vector<uint32_t> basis_pos_; // internal column -> position or npos
  std::vector<VState> vstate_;
  std::vector<double> xB_;

  SparseLu lu_;
  std::vector<Eta> etas_;
  size_t eta_nnz_ = 0;  // stored entries across the eta file
  bool factor_valid_ = false;
  bool basis_valid_ = false;
  bool artificials_pinned_ = false;
  size_t total_iterations_ = 0;
  size_t total_refactorizations_ = 0;

  // Scratch buffers reused across iterations.
  mutable std::vector<double> ftran_buf_;
  mutable std::vector<double> btran_buf_;
  std::vector<double> cb_buf_;
  std::vector<double> pi_buf_;
  std::vector<double> w_buf_;
  std::vector<double> cost_buf_;
  std::vector<double> d_buf_;      // maintained reduced costs
  std::vector<double> devex_buf_;  // devex reference weights
  std::vector<double> rho_buf_;    // pivot row of B^{-1}
  std::vector<double> rhs_work_;
  std::vector<double> alpha_buf_;    // pivot-row coefficients, by column
  std::vector<uint8_t> alpha_mark_;  // which alpha_buf_ entries are live
  std::vector<uint32_t> touched_;
};

}  // namespace autotest::lp

#endif  // AUTOTEST_LP_REVISED_SIMPLEX_H_
