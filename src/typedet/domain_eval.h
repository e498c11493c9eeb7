#ifndef AUTOTEST_TYPEDET_DOMAIN_EVAL_H_
#define AUTOTEST_TYPEDET_DOMAIN_EVAL_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.h"
#include "util/row_cache.h"

namespace autotest::typedet {

/// The four column-type detection families the paper unifies (Section 3),
/// plus the adversarial random-hash family used in the robustness study
/// (Section 6.5).
enum class Family {
  kCta,
  kEmbedding,
  kPattern,
  kFunction,
  kHash,
};

const char* FamilyName(Family family);

/// Rows a shared backend computes once per value for all of its sibling
/// eval functions: `width` floats per value, row-major, plus a per-value
/// flag. A CTA zoo's row is the value's all-type score vector; an
/// embedding model's row is the value's vector, flagged 0 when the value
/// is out of vocabulary (the row is then all zeros).
struct BackendRows {
  size_t width = 0;
  std::vector<float> data;  // size() * width
  std::vector<uint8_t> ok;  // one flag per value

  size_t size() const { return ok.size(); }
  const float* row(size_t i) const { return data.data() + i * width; }
};

/// Domain-evaluation function (paper Definition 1): a distance between a
/// candidate value and a semantic type. Smaller distance = more likely "in"
/// the type's domain. Concrete subclasses adapt CTA classifiers (1 - score),
/// embeddings (distance to a centroid), patterns (0/1 match), validation
/// functions (0/1) and random hashes.
class DomainEvalFunction {
 public:
  virtual ~DomainEvalFunction() = default;

  /// Unique stable identifier, e.g. "cta:sherlock-sim:country" or
  /// "emb:sbert-sim:seattle".
  const std::string& id() const { return id_; }

  Family family() const { return family_; }

  /// Distance between the type represented by this function and `value`.
  /// Must be deterministic and thread-safe: callers scoring a block of
  /// values through a function without a backend loop over it, and the
  /// trainer scores several blocks of its pool at once.
  virtual double Distance(std::string_view value) const = 0;

  /// Identity of the shared model this function reads (its CTA zoo or
  /// embedding model), or nullptr when it has none. Functions returning
  /// the same non-null identity compute identical rows for a value, so a
  /// caller that evaluates several of them computes the rows once per
  /// block of values (ComputeBackendRows) and hands them to every sibling
  /// (DistanceFromRows). ScoringPlan (below) plans exactly that for the
  /// trainer and the predictor (DESIGN.md §4k).
  virtual const void* backend() const { return nullptr; }

  /// Fills `rows` with the backend's rows for a block of values. Called
  /// only on functions whose backend() is non-null. `write` says whether
  /// rows the backend computes for values its memo lacks are inserted
  /// into that memo: the trainer and scalar Distance insert, the
  /// predictor only reads (util::MemoWrite).
  virtual void ComputeBackendRows(
      std::span<const std::string_view> /*values*/, BackendRows* /*rows*/,
      util::MemoWrite /*write*/) const {
    AT_CHECK_MSG(false, "ComputeBackendRows on a function without backend");
  }

  /// out[i] receives this function's distance for row i of `rows`, which
  /// any function with the same backend() computed. MUST be bit-identical
  /// to Distance on the same value: the trainer's columnar pass relies on
  /// it, and the differential determinism suite enforces it.
  virtual void DistanceFromRows(const BackendRows& /*rows*/,
                                std::span<double> /*out*/) const {
    AT_CHECK_MSG(false, "DistanceFromRows on a function without backend");
  }

  /// Distances of a group of functions with this function's backend() and
  /// dynamic type, this one first, for one block of rows: outs[g] receives
  /// rows.size() distances of group[g], bit-identical to
  /// group[g]->DistanceFromRows. ScoreSource hands each run of a
  /// ScoringPlan to its first function. The default calls
  /// DistanceFromRows once per function; an embedding function computes
  /// the whole group in one pass over the rows.
  virtual void GroupDistanceFromRows(
      std::span<const DomainEvalFunction* const> group,
      const BackendRows& rows, std::span<double* const> outs) const {
    for (size_t g = 0; g < group.size(); ++g) {
      group[g]->DistanceFromRows(rows, {outs[g], rows.size()});
    }
  }

  /// Smallest / largest distance this function can produce; the candidate
  /// generator enumerates thresholds inside this range.
  virtual double min_distance() const = 0;
  virtual double max_distance() const = 0;

  /// True if the function only emits {min_distance, max_distance} (pattern
  /// and function families): the threshold grid degenerates to one cell.
  virtual bool binary() const { return false; }

  /// Human-readable description used in rule explanations, mirroring the
  /// paper's Table 1 wording.
  virtual std::string Describe() const = 0;

 protected:
  DomainEvalFunction(std::string id, Family family)
      : id_(std::move(id)), family_(family) {}

 private:
  std::string id_;
  Family family_;
};

/// How a list of evaluation functions shares work when it scores a block
/// of values (DESIGN.md §4k). Each backend is one source, whose first
/// function computes the rows once for all of the source's functions.
/// Its functions form runs, each scored in one GroupDistanceFromRows
/// call: up to embed::kMaxCentroidGroup embedding functions of one model
/// and dynamic type, in list order, share one pass over the model's
/// rows, and every other function is a run of one. The functions
/// without a backend form the last source, scored value by value
/// through Distance, one function per run.
struct ScoringPlan {
  /// Indices into `functions`, in list order.
  using Run = std::vector<size_t>;
  struct Source {
    /// The source's first function, which computes the rows; null for
    /// the functions without a backend.
    const DomainEvalFunction* rows = nullptr;
    /// The first run begins with the source's first function in list
    /// order.
    std::vector<Run> runs;
  };
  /// The planned list.
  std::vector<const DomainEvalFunction*> functions;
  /// Backends in first-function order, then the functions without one.
  std::vector<Source> sources;
};

/// Plans `functions` (see ScoringPlan). On EvalFunctionSet::Build order,
/// where each model's functions are consecutive, a model's runs are its
/// functions in consecutive runs of embed::kMaxCentroidGroup.
ScoringPlan PlanScoring(std::span<const DomainEvalFunction* const> functions);

/// Scores `values` through one source of `plan`: computes its rows into
/// `rows` (inserting them into the backend's memo as `write` says), then
/// each run's distances into `dist`, and calls emit(i, d) with the
/// values.size() distances d of plan.functions[i], for each function of
/// the source in run order. `rows` and `dist` are the caller's scratch;
/// `d` points into `dist` and lives until the next run. Each distance is
/// bit-identical to the function's Distance on the same value.
void ScoreSource(
    const ScoringPlan& plan, size_t source,
    std::span<const std::string_view> values, util::MemoWrite write,
    BackendRows* rows, std::vector<double>* dist,
    const std::function<void(size_t, std::span<const double>)>& emit);

}  // namespace autotest::typedet

#endif  // AUTOTEST_TYPEDET_DOMAIN_EVAL_H_
