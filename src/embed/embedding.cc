#include "embed/embedding.h"

#include <algorithm>

#include "datagen/gazetteer.h"
#include "util/check.h"
#include "util/string_util.h"

namespace autotest::embed {

namespace {

constexpr size_t kDim = 64;

// Shared machinery: domain centroids + membership-weighted composition.
// A centroid is a pure function of (domain, seed) that costs one
// Box-Muller draw per dimension, so a model derives all of them once at
// construction, indexed like Gazetteer::domains() (Membership::domain_index).
std::vector<Vector> CentroidsByDomain(uint64_t seed) {
  std::vector<Vector> out;
  for (const auto& domain : datagen::Gazetteer::Instance().domains()) {
    out.push_back(HashGaussianUnit("centroid:" + domain.name, seed, kDim));
  }
  return out;
}

// Averaged centroid over a value's memberships; returns false if the value
// belongs to no NL domain. `weight` receives the semantic tier weight.
bool SemanticComponent(const std::string& value,
                       const std::vector<Vector>& centroids,
                       double head_weight, double tail_weight, Vector* out,
                       double* weight) {
  const auto* memberships = datagen::Gazetteer::Instance().Lookup(value);
  if (memberships == nullptr || memberships->empty()) return false;
  Vector acc(kDim, 0.0f);
  double w_acc = 0.0;
  for (const auto& m : *memberships) {
    double w = (m.tier == datagen::Tier::kHead) ? head_weight : tail_weight;
    AddScaled(&acc, centroids[m.domain_index], w);
    w_acc += w;
  }
  Normalize(&acc);
  *out = std::move(acc);
  *weight = w_acc / static_cast<double>(memberships->size());
  return true;
}

class GloveSim : public EmbeddingModel {
 public:
  explicit GloveSim(uint64_t seed)
      : seed_(seed), centroids_(CentroidsByDomain(seed)) {}

  const std::string& name() const override {
    static const std::string& n = *new std::string("glove-sim");
    return n;
  }
  size_t dim() const override { return kDim; }
  double oov_distance() const override { return 2.0 * kScale; }

  bool Embed(const std::string& value, Vector* out) const override {
    // Closed vocabulary: head members only. Tails and unknown strings are
    // OOV, like rare names missing from GloVe's vocabulary.
    const auto* memberships = datagen::Gazetteer::Instance().Lookup(value);
    if (memberships == nullptr) return false;
    bool any_head = false;
    Vector sem(kDim, 0.0f);
    for (const auto& m : *memberships) {
      if (m.tier != datagen::Tier::kHead) continue;
      AddScaled(&sem, centroids_[m.domain_index], 1.0);
      any_head = true;
    }
    if (!any_head) return false;
    Normalize(&sem);
    Vector v = sem;
    AddScaled(&v, LexicalVector(value, seed_ ^ 0x11ee, kDim), 0.35);
    AddScaled(&v, HashGaussianUnit(value, seed_ ^ 0x77aa, kDim), 0.15);
    Normalize(&v);
    Scale(&v, kScale);
    *out = std::move(v);
    return true;
  }

 private:
  static constexpr double kScale = 4.0;  // paper-like GloVe distance scale
  uint64_t seed_;
  std::vector<Vector> centroids_;
};

class SbertSim : public EmbeddingModel {
 public:
  explicit SbertSim(uint64_t seed)
      : seed_(seed), centroids_(CentroidsByDomain(seed)) {}

  const std::string& name() const override {
    static const std::string& n = *new std::string("sbert-sim");
    return n;
  }
  size_t dim() const override { return kDim; }
  double oov_distance() const override { return 2.0 * kScale; }  // unused

  bool Embed(const std::string& value, Vector* out) const override {
    Vector sem;
    double sem_weight = 0.0;
    bool has_sem =
        SemanticComponent(value, centroids_, /*head_weight=*/0.8,
                          /*tail_weight=*/0.5, &sem, &sem_weight);
    Vector v(kDim, 0.0f);
    if (has_sem) AddScaled(&v, sem, sem_weight);
    AddScaled(&v, LexicalVector(value, seed_ ^ 0x22ff, kDim),
              1.0 - (has_sem ? sem_weight : 0.0));
    AddScaled(&v, HashGaussianUnit(value, seed_ ^ 0x88bb, kDim), 0.05);
    Normalize(&v);
    Scale(&v, kScale);
    *out = std::move(v);
    return true;
  }

 private:
  static constexpr double kScale = 1.2;  // paper-like S-BERT distance scale
  uint64_t seed_;
  std::vector<Vector> centroids_;
};

}  // namespace

void EmbeddingModel::EmbedBlockCached(
    std::span<const std::string_view> values, float* out, uint8_t* ok,
    util::MemoWrite write) const {
  cache_.Fill(values, dim(), out, ok, write,
              [this](std::string_view value, float* row) {
                Vector v;
                if (!Embed(std::string(value), &v)) return false;
                AT_CHECK(v.size() == dim());
                std::copy(v.begin(), v.end(), row);
                return true;
              });
}

double EmbeddingModel::Distance(std::string_view a, std::string_view b) const {
  const std::string_view values[] = {a, b};
  const size_t d = dim();
  std::vector<float> rows(2 * d);
  uint8_t ok[2];
  EmbedBlockCached(values, rows.data(), ok, util::MemoWrite::kInsert);
  if (ok[0] == 0 || ok[1] == 0) return oov_distance();
  double distance = 0.0;
  double* out = &distance;
  GroupedDistances(rows.data(), nullptr, 1, d, rows.data() + d, 1, 0.0, &out);
  return distance;
}

std::unique_ptr<EmbeddingModel> MakeGloveSim(uint64_t seed) {
  return std::make_unique<GloveSim>(seed);
}

std::unique_ptr<EmbeddingModel> MakeSbertSim(uint64_t seed) {
  return std::make_unique<SbertSim>(seed);
}

std::shared_ptr<EmbeddingModel> SharedGloveSim() {
  // Leaky magic static: one process-wide default-seed model, so repeated
  // EvalFunctionSet::Build calls share a warm embedding cache.
  static const auto& model =
      *new std::shared_ptr<EmbeddingModel>(MakeGloveSim());
  return model;
}

std::shared_ptr<EmbeddingModel> SharedSbertSim() {
  static const auto& model =
      *new std::shared_ptr<EmbeddingModel>(MakeSbertSim());
  return model;
}

}  // namespace autotest::embed
