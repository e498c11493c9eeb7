#include "embed/embedding.h"

#include "datagen/gazetteer.h"
#include "util/string_util.h"

namespace autotest::embed {

namespace {

constexpr size_t kDim = 64;

// Shared machinery: domain centroids + membership-weighted composition.
// A centroid is a pure function of (domain, seed) but costs one Box-Muller
// draw per dimension, and it is requested once per membership of every
// embedded value — so memoize the few dozen (domain, seed) pairs. The
// cached vector is bit-identical to a fresh HashGaussianUnit call.
Vector DomainCentroid(const std::string& domain_name, uint64_t seed) {
  static util::Mutex mu;
  static auto* cache = new std::unordered_map<std::string, Vector>();
  std::string key = std::to_string(seed) + ":" + domain_name;
  {
    util::MutexLock lock(&mu);
    auto it = cache->find(key);
    if (it != cache->end()) return it->second;
  }
  // Computed outside the lock; racing threads derive identical vectors.
  Vector v = HashGaussianUnit("centroid:" + domain_name, seed, kDim);
  util::MutexLock lock(&mu);
  return cache->emplace(std::move(key), std::move(v)).first->second;
}

// Averaged centroid over a value's memberships; returns false if the value
// belongs to no NL domain. `weight` receives the semantic tier weight.
bool SemanticComponent(const std::string& value, uint64_t seed,
                       double head_weight, double tail_weight, Vector* out,
                       double* weight) {
  const auto* memberships = datagen::Gazetteer::Instance().Lookup(value);
  if (memberships == nullptr || memberships->empty()) return false;
  Vector acc(kDim, 0.0f);
  double w_acc = 0.0;
  for (const auto& m : *memberships) {
    const auto& domain =
        datagen::Gazetteer::Instance().domains()[m.domain_index];
    double w = (m.tier == datagen::Tier::kHead) ? head_weight : tail_weight;
    AddScaled(&acc, DomainCentroid(domain.name, seed), w);
    w_acc += w;
  }
  Normalize(&acc);
  *out = std::move(acc);
  *weight = w_acc / static_cast<double>(memberships->size());
  return true;
}

class GloveSim : public EmbeddingModel {
 public:
  explicit GloveSim(uint64_t seed) : seed_(seed) {}

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
      const auto& domain =
          datagen::Gazetteer::Instance().domains()[m.domain_index];
      AddScaled(&sem, DomainCentroid(domain.name, seed_), 1.0);
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
};

class SbertSim : public EmbeddingModel {
 public:
  explicit SbertSim(uint64_t seed) : seed_(seed) {}

  const std::string& name() const override {
    static const std::string& n = *new std::string("sbert-sim");
    return n;
  }
  size_t dim() const override { return kDim; }
  double oov_distance() const override { return 2.0 * kScale; }  // unused

  bool Embed(const std::string& value, Vector* out) const override {
    Vector sem;
    double sem_weight = 0.0;
    bool has_sem = SemanticComponent(value, seed_, /*head_weight=*/0.8,
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
};

}  // namespace

bool EmbeddingModel::EmbedCached(const std::string& value,
                                 Vector* out) const {
  {
    util::MutexLock lock(&cache_mu_);
    auto it = cache_.find(value);
    if (it != cache_.end()) {
      *out = it->second.second;
      return it->second.first;
    }
  }
  Vector v;
  bool ok = Embed(value, &v);
  {
    util::MutexLock lock(&cache_mu_);
    if (cache_.size() >= kMaxCacheEntries) cache_.clear();
    cache_.emplace(value, std::make_pair(ok, v));
  }
  *out = std::move(v);
  return ok;
}

void EmbeddingModel::EmbedBlockCached(
    std::span<const std::string_view> values, float* out, uint8_t* ok) const {
  const size_t d = dim();
  auto emit = [&](size_t i, bool embeddable, const Vector& v) {
    ok[i] = embeddable ? 1 : 0;
    float* row = out + i * d;
    if (embeddable && v.size() == d) {
      std::copy(v.begin(), v.end(), row);
    } else {
      std::fill(row, row + d, 0.0f);
    }
  };
  std::vector<size_t> misses;
  {
    util::MutexLock lock(&cache_mu_);
    for (size_t i = 0; i < values.size(); ++i) {
      auto it = cache_.find(values[i]);
      if (it == cache_.end()) {
        misses.push_back(i);
        continue;
      }
      emit(i, it->second.first, it->second.second);
    }
  }
  if (misses.empty()) return;
  // Misses are embedded outside the lock (pure CPU work).
  std::vector<std::pair<bool, Vector>> computed(misses.size());
  for (size_t k = 0; k < misses.size(); ++k) {
    computed[k].first =
        Embed(std::string(values[misses[k]]), &computed[k].second);
    emit(misses[k], computed[k].first, computed[k].second);
  }
  util::MutexLock lock(&cache_mu_);
  for (size_t k = 0; k < misses.size(); ++k) {
    if (cache_.size() >= kMaxCacheEntries) cache_.clear();
    cache_.emplace(std::string(values[misses[k]]), std::move(computed[k]));
  }
}

double EmbeddingModel::Distance(const std::string& a,
                                const std::string& b) const {
  Vector va;
  Vector vb;
  if (!EmbedCached(a, &va) || !EmbedCached(b, &vb)) return oov_distance();
  return EuclideanDistance(va, vb);
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
