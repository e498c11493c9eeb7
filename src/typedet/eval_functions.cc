#include "typedet/eval_functions.h"

#include <algorithm>
#include <array>
#include <typeinfo>
#include <unordered_set>

#include "embed/vector_math.h"
#include "pattern/miner.h"
#include "table/column.h"
#include "typedet/shipped_zoos.h"
#include "util/check.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace autotest::typedet {

namespace {

// Distance of one value through a function's backend: a one-value block,
// so scalar callers read the same memoized rows and the same kernel as
// ScoreSource's blocks. The rows are per-thread scratch, so a scalar call
// allocates nothing once its thread has scored a value.
double DistanceViaRows(const DomainEvalFunction& f, std::string_view value) {
  thread_local BackendRows rows;
  f.ComputeBackendRows({&value, 1}, &rows, util::MemoWrite::kInsert);
  double distance = 0.0;
  f.DistanceFromRows(rows, {&distance, 1});
  return distance;
}

class CtaEval : public DomainEvalFunction {
 public:
  CtaEval(const CtaModelZoo* zoo, size_t type_index)
      : DomainEvalFunction(
            "cta:" + zoo->name() + ":" + zoo->type_names()[type_index],
            Family::kCta),
        zoo_(zoo),
        type_index_(type_index) {}

  double Distance(std::string_view value) const override {
    return DistanceViaRows(*this, value);
  }

  const void* backend() const override { return zoo_; }

  void ComputeBackendRows(std::span<const std::string_view> values,
                          BackendRows* rows,
                          util::MemoWrite write) const override {
    rows->width = zoo_->num_types();
    rows->data.resize(values.size() * rows->width);
    rows->ok.assign(values.size(), 1);
    zoo_->ScoreRows(values, rows->data.data(), write);
  }

  void DistanceFromRows(const BackendRows& rows,
                        std::span<double> out) const override {
    // Paper Eq. 1: distance = 1 - classifier score.
    for (size_t i = 0; i < rows.size(); ++i) {
      out[i] = 1.0 - static_cast<double>(rows.row(i)[type_index_]);
    }
  }
  double min_distance() const override { return 0.0; }
  double max_distance() const override { return 1.0; }

  std::string Describe() const override {
    return zoo_->name() + " " + zoo_->type_names()[type_index_] +
           "-classifier score";
  }

 private:
  const CtaModelZoo* zoo_;
  size_t type_index_;
};

class EmbeddingEval : public DomainEvalFunction {
 public:
  EmbeddingEval(const embed::EmbeddingModel* model,
                std::string centroid_value, embed::Vector centroid)
      : DomainEvalFunction("emb:" + model->name() + ":" + centroid_value,
                           Family::kEmbedding),
        model_(model),
        centroid_value_(std::move(centroid_value)),
        centroid_(std::move(centroid)) {}

  double Distance(std::string_view value) const override {
    return DistanceViaRows(*this, value);
  }

  const void* backend() const override { return model_; }

  void ComputeBackendRows(std::span<const std::string_view> values,
                          BackendRows* rows,
                          util::MemoWrite write) const override {
    rows->width = model_->dim();
    rows->data.resize(values.size() * rows->width);
    rows->ok.resize(values.size());
    model_->EmbedBlockCached(values, rows->data.data(), rows->ok.data(),
                             write);
  }

  void DistanceFromRows(const BackendRows& rows,
                        std::span<double> out) const override {
    // Paper Eq. 2: Euclidean distance to the centroid's embedding, through
    // the grouped kernel with a group of one.
    double* const outs[] = {out.data()};
    embed::GroupedDistances(rows.data.data(), rows.ok.data(), rows.size(),
                            rows.width, centroid_.data(), 1,
                            model_->oov_distance(), outs);
  }

  void GroupDistanceFromRows(std::span<const DomainEvalFunction* const> group,
                             const BackendRows& rows,
                             std::span<double* const> outs) const override {
    // The group's centroids, dimension-major for the kernel.
    const size_t k = group.size();
    std::vector<float> centroids(rows.width * k);
    for (size_t c = 0; c < k; ++c) {
      const auto& f = static_cast<const EmbeddingEval&>(*group[c]);
      AT_CHECK(f.model_ == model_ && f.centroid_.size() == rows.width);
      for (size_t j = 0; j < rows.width; ++j) {
        centroids[j * k + c] = f.centroid_[j];
      }
    }
    embed::GroupedDistances(rows.data.data(), rows.ok.data(), rows.size(),
                            rows.width, centroids.data(), k,
                            model_->oov_distance(), outs.data());
  }
  double min_distance() const override { return 0.0; }
  double max_distance() const override { return model_->oov_distance(); }

  std::string Describe() const override {
    return model_->name() + " distance to \"" + centroid_value_ + "\"";
  }

 private:
  const embed::EmbeddingModel* model_;
  std::string centroid_value_;
  embed::Vector centroid_;
};

class PatternEval : public DomainEvalFunction {
 public:
  explicit PatternEval(pattern::Pattern pattern)
      : DomainEvalFunction("pat:" + pattern.ToString(), Family::kPattern),
        pattern_(std::move(pattern)) {}

  double Distance(std::string_view value) const override {
    // Paper Eq. 3: match -> 0, non-match -> 1.
    return pattern_.Matches(value) ? 0.0 : 1.0;
  }
  double min_distance() const override { return 0.0; }
  double max_distance() const override { return 1.0; }
  bool binary() const override { return true; }

  std::string Describe() const override {
    return "match pattern \"" + pattern_.ToString() + "\"";
  }

 private:
  pattern::Pattern pattern_;
};

class FunctionEval : public DomainEvalFunction {
 public:
  explicit FunctionEval(NamedValidator validator)
      : DomainEvalFunction("fun:" + validator.name, Family::kFunction),
        validator_(validator) {}

  double Distance(std::string_view value) const override {
    // Paper Eq. 4: returns-true -> 0, returns-false -> 1.
    return validator_.fn(value) ? 0.0 : 1.0;
  }
  double min_distance() const override { return 0.0; }
  double max_distance() const override { return 1.0; }
  bool binary() const override { return true; }

  std::string Describe() const override {
    return "function " + validator_.name + "() [" + validator_.library + "]";
  }

 private:
  NamedValidator validator_;
};

class RandomHashEval : public DomainEvalFunction {
 public:
  explicit RandomHashEval(uint64_t seed)
      : DomainEvalFunction("hash:" + std::to_string(seed), Family::kHash),
        seed_(seed) {}

  double Distance(std::string_view value) const override {
    // A hash function maps every value to an arbitrary number in [0, 1]:
    // it corresponds to no meaningful domain (paper Section 6.5).
    return util::HashToUnitDouble(util::Fnv64Seeded(value, seed_));
  }
  double min_distance() const override { return 0.0; }
  double max_distance() const override { return 1.0; }

  std::string Describe() const override {
    return "random hash #" + std::to_string(seed_);
  }

 private:
  uint64_t seed_;
};

// Samples centroid values from the corpus, occurrence-weighted like the
// paper ("randomly sample 1000 values"): values common across many columns
// (countries, months, cities) are proportionally more likely to become
// centroids than one-off ids. Duplicates are skipped, and a value is kept
// only if the model can embed it (an OOV centroid yields a constant
// function).
std::vector<std::string> SampleCentroids(const table::Corpus& corpus,
                                         const embed::EmbeddingModel& model,
                                         size_t count, uint64_t seed) {
  std::vector<const std::string*> pool;
  for (const auto& column : corpus) {
    for (const auto& v : column.values) {
      if (v.size() >= 2) pool.push_back(&v);
    }
  }
  util::Rng rng(seed);
  std::unordered_set<std::string> seen;
  std::vector<std::string> out;
  embed::Vector tmp;
  size_t attempts = 0;
  const size_t max_attempts = pool.size() * 2 + 1000;
  while (out.size() < count && attempts++ < max_attempts && !pool.empty()) {
    const std::string& v = *pool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
    if (!seen.insert(v).second) continue;
    if (model.Embed(v, &tmp)) out.push_back(v);
  }
  return out;
}

}  // namespace

const char* FamilyName(Family family) {
  switch (family) {
    case Family::kCta:
      return "cta";
    case Family::kEmbedding:
      return "embedding";
    case Family::kPattern:
      return "pattern";
    case Family::kFunction:
      return "function";
    case Family::kHash:
      return "hash";
  }
  return "unknown";
}

std::unique_ptr<DomainEvalFunction> MakeCtaEval(const CtaModelZoo* zoo,
                                                size_t type_index) {
  AT_CHECK(zoo != nullptr && type_index < zoo->num_types());
  return std::make_unique<CtaEval>(zoo, type_index);
}

std::unique_ptr<DomainEvalFunction> MakeEmbeddingEval(
    const embed::EmbeddingModel* model, const std::string& centroid_value) {
  AT_CHECK(model != nullptr);
  embed::Vector centroid;
  AT_CHECK_MSG(model->Embed(centroid_value, &centroid),
               "centroid value must be embeddable");
  return std::make_unique<EmbeddingEval>(model, centroid_value,
                                         std::move(centroid));
}

std::unique_ptr<DomainEvalFunction> MakePatternEval(
    const pattern::Pattern& pattern) {
  return std::make_unique<PatternEval>(pattern);
}

std::unique_ptr<DomainEvalFunction> MakeFunctionEval(
    const NamedValidator& validator) {
  return std::make_unique<FunctionEval>(validator);
}

std::unique_ptr<DomainEvalFunction> MakeRandomHashEval(uint64_t seed) {
  return std::make_unique<RandomHashEval>(seed);
}

EvalFunctionSet EvalFunctionSet::Build(const table::Corpus& corpus,
                                       const EvalFunctionSetOptions& options) {
  EvalFunctionSet set;

  if (options.include_cta) {
    set.cta_zoos_.push_back(SharedSherlockSim());
    set.cta_zoos_.push_back(SharedDoduoSim());
    for (const auto& zoo : set.cta_zoos_) {
      for (size_t t = 0; t < zoo->num_types(); ++t) {
        set.functions_.push_back(MakeCtaEval(zoo.get(), t));
      }
    }
  }

  if (options.include_embedding) {
    set.embedding_models_.push_back(embed::SharedGloveSim());
    set.embedding_models_.push_back(embed::SharedSbertSim());
    uint64_t seed = options.seed;
    for (const auto& model : set.embedding_models_) {
      auto centroids =
          SampleCentroids(corpus, *model,
                          options.embedding_centroids_per_model, seed++);
      for (const auto& c : centroids) {
        set.functions_.push_back(MakeEmbeddingEval(model.get(), c));
      }
    }
  }

  if (options.include_pattern) {
    pattern::MinerOptions miner;
    miner.max_patterns = options.max_patterns;
    for (const auto& mined : pattern::MinePatterns(corpus, miner)) {
      set.functions_.push_back(MakePatternEval(mined.pattern));
    }
  }

  if (options.include_function) {
    for (const auto& v : AllValidators()) {
      set.functions_.push_back(MakeFunctionEval(v));
    }
  }

  for (size_t i = 0; i < options.num_random_hash; ++i) {
    set.functions_.push_back(
        MakeRandomHashEval(options.seed ^ (0x1000 + i)));
  }

  return set;
}

void EvalFunctionSet::Add(std::unique_ptr<DomainEvalFunction> function) {
  AT_CHECK(function != nullptr);
  for (const auto& f : functions_) {
    AT_CHECK_MSG(f->id() != function->id(), "duplicate eval function id");
  }
  functions_.push_back(std::move(function));
}

std::vector<const DomainEvalFunction*> EvalFunctionSet::FamilyFunctions(
    Family family) const {
  std::vector<const DomainEvalFunction*> out;
  for (const auto& f : functions_) {
    if (f->family() == family) out.push_back(f.get());
  }
  return out;
}

ScoringPlan PlanScoring(std::span<const DomainEvalFunction* const> functions) {
  ScoringPlan plan;
  plan.functions.assign(functions.begin(), functions.end());
  ScoringPlan::Source no_backend;
  std::vector<bool> planned(functions.size(), false);
  for (size_t i = 0; i < functions.size(); ++i) {
    if (planned[i]) continue;
    const DomainEvalFunction& lead = *functions[i];
    if (lead.backend() == nullptr) {
      no_backend.runs.push_back({i});
      continue;
    }
    auto source = std::find_if(
        plan.sources.begin(), plan.sources.end(),
        [&](const ScoringPlan::Source& s) {
          return s.rows->backend() == lead.backend();
        });
    if (source == plan.sources.end()) {
      source = plan.sources.insert(source, ScoringPlan::Source{&lead, {}});
    }
    // An embedding function leads every later one of its model and
    // dynamic type, in runs of at most kMaxCentroidGroup.
    auto joins = [&](const DomainEvalFunction& f) {
      return lead.family() == Family::kEmbedding &&
             f.family() == Family::kEmbedding &&
             f.backend() == lead.backend() && typeid(f) == typeid(lead);
    };
    ScoringPlan::Run run = {i};
    for (size_t j = i + 1; j < functions.size(); ++j) {
      if (planned[j] || !joins(*functions[j])) continue;
      if (run.size() == embed::kMaxCentroidGroup) {
        source->runs.push_back(std::move(run));
        run.clear();
      }
      run.push_back(j);
      planned[j] = true;
    }
    source->runs.push_back(std::move(run));
  }
  if (!no_backend.runs.empty()) plan.sources.push_back(std::move(no_backend));
  return plan;
}

void ScoreSource(
    const ScoringPlan& plan, size_t source,
    std::span<const std::string_view> values, util::MemoWrite write,
    BackendRows* rows, std::vector<double>* dist,
    const std::function<void(size_t, std::span<const double>)>& emit) {
  const ScoringPlan::Source& s = plan.sources[source];
  const size_t n = values.size();
  if (dist->size() < embed::kMaxCentroidGroup * n) {
    dist->resize(embed::kMaxCentroidGroup * n);
  }
  if (s.rows != nullptr) s.rows->ComputeBackendRows(values, rows, write);
  std::array<const DomainEvalFunction*, embed::kMaxCentroidGroup> group;
  std::array<double*, embed::kMaxCentroidGroup> outs;
  for (const ScoringPlan::Run& run : s.runs) {
    for (size_t g = 0; g < run.size(); ++g) {
      group[g] = plan.functions[run[g]];
      outs[g] = dist->data() + g * n;
    }
    if (s.rows != nullptr) {
      group[0]->GroupDistanceFromRows({group.data(), run.size()}, *rows,
                                      {outs.data(), run.size()});
    } else {
      for (size_t v = 0; v < n; ++v) {
        outs[0][v] = group[0]->Distance(values[v]);
      }
    }
    for (size_t g = 0; g < run.size(); ++g) emit(run[g], {outs[g], n});
  }
}

}  // namespace autotest::typedet
