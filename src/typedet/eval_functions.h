#ifndef AUTOTEST_TYPEDET_EVAL_FUNCTIONS_H_
#define AUTOTEST_TYPEDET_EVAL_FUNCTIONS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "embed/embedding.h"
#include "pattern/pattern.h"
#include "table/table.h"
#include "typedet/cta_zoo.h"
#include "typedet/domain_eval.h"
#include "typedet/validators.h"

namespace autotest::typedet {

/// Options for assembling the full set of domain-evaluation functions
/// (paper Section 5.1). Family switches support the Table-7/Figure-23
/// ablations; `num_random_hash` supports the Section-6.5 robustness study.
struct EvalFunctionSetOptions {
  bool include_cta = true;
  bool include_embedding = true;
  bool include_pattern = true;
  bool include_function = true;
  /// Centroid values sampled from the corpus per embedding model (paper:
  /// 1000 across two models; scaled to our corpus sizes).
  size_t embedding_centroids_per_model = 120;
  /// Corpus-mined patterns to keep (paper: 45).
  size_t max_patterns = 45;
  /// Adversarial random-hash functions to inject (0 in normal operation).
  size_t num_random_hash = 0;
  uint64_t seed = 99;
};

/// Owns the evaluation functions plus the models backing them (CTA zoos and
/// embedding models). Movable, non-copyable.
class EvalFunctionSet {
 public:
  /// Builds the set: wraps the pre-trained CTA zoos, samples embedding
  /// centroids from the corpus, mines corpus patterns, and wraps the
  /// validators.
  static EvalFunctionSet Build(const table::Corpus& corpus,
                               const EvalFunctionSetOptions& options = {});

  EvalFunctionSet(EvalFunctionSet&&) = default;
  EvalFunctionSet& operator=(EvalFunctionSet&&) = default;
  EvalFunctionSet(const EvalFunctionSet&) = delete;
  EvalFunctionSet& operator=(const EvalFunctionSet&) = delete;

  /// Registers an additional evaluation function (paper feature 3:
  /// extensibility to new column-type detection techniques). Must be
  /// called before training; the function id must be unique.
  void Add(std::unique_ptr<DomainEvalFunction> function);

  const std::vector<std::unique_ptr<DomainEvalFunction>>& functions() const {
    return functions_;
  }
  size_t size() const { return functions_.size(); }
  const DomainEvalFunction& at(size_t i) const { return *functions_[i]; }

  /// Functions of one family (for per-family baselines and ablations).
  std::vector<const DomainEvalFunction*> FamilyFunctions(
      Family family) const;

  /// The CTA zoos backing the set (for baselines that need raw scores).
  /// Shared: the built-in zoos and embedding models are process-wide
  /// singletons (SharedSherlockSim etc.), so repeated Build calls reuse
  /// one instance of each and its warm value cache.
  const std::vector<std::shared_ptr<CtaModelZoo>>& cta_zoos() const {
    return cta_zoos_;
  }
  const std::vector<std::shared_ptr<embed::EmbeddingModel>>&
  embedding_models() const {
    return embedding_models_;
  }

 private:
  EvalFunctionSet() = default;

  std::vector<std::shared_ptr<CtaModelZoo>> cta_zoos_;
  std::vector<std::shared_ptr<embed::EmbeddingModel>> embedding_models_;
  std::vector<std::unique_ptr<DomainEvalFunction>> functions_;
};

/// Factory helpers (exposed for tests and custom extensions).
std::unique_ptr<DomainEvalFunction> MakeCtaEval(const CtaModelZoo* zoo,
                                                size_t type_index);
std::unique_ptr<DomainEvalFunction> MakeEmbeddingEval(
    const embed::EmbeddingModel* model, const std::string& centroid_value);
std::unique_ptr<DomainEvalFunction> MakePatternEval(
    const pattern::Pattern& pattern);
std::unique_ptr<DomainEvalFunction> MakeFunctionEval(
    const NamedValidator& validator);
std::unique_ptr<DomainEvalFunction> MakeRandomHashEval(uint64_t seed);

}  // namespace autotest::typedet

#endif  // AUTOTEST_TYPEDET_EVAL_FUNCTIONS_H_
