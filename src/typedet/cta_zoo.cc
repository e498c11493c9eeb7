#include "typedet/cta_zoo.h"

#include <cctype>
#include <cmath>

#include "datagen/gazetteer.h"
#include "util/check.h"
#include "util/hashing.h"
#include "util/parallel/thread_pool.h"
#include "util/rng.h"

namespace autotest::typedet {

namespace {

std::string TitleCase(const std::string& s) {
  std::string out = s;
  bool start = true;
  for (char& c : out) {
    if (start && std::isalpha(static_cast<unsigned char>(c))) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    start = (c == ' ' || c == '-');
  }
  return out;
}

// Collects negative examples: head values of other domains plus fresh
// machine-generated values, so classifiers see both text and id shapes.
std::vector<std::string> SampleNegatives(const std::string& own_domain,
                                         size_t count, util::Rng* rng) {
  const auto& gaz = datagen::Gazetteer::Instance();
  std::vector<std::string> out;
  out.reserve(count);
  const auto& domains = gaz.domains();
  while (out.size() < count) {
    const datagen::Domain& d = domains[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(domains.size()) - 1))];
    if (d.name == own_domain) continue;
    std::string v = d.has_generator() && rng->Bernoulli(0.5)
                        ? d.generator(*rng)
                        : rng->Pick(d.head);
    if (gaz.Contains(own_domain, v)) continue;
    out.push_back(std::move(v));
  }
  return out;
}

// Packs trained per-type classifiers into the transposed layout
// ScoreAllTypes reads.
PackedZooWeights Pack(const std::vector<ml::LogisticRegression>& models,
                      size_t dim) {
  const size_t nt = models.size();
  PackedZooWeights packed;
  packed.wt.assign(dim * nt, 0.0);
  packed.biases.assign(nt, 0.0);
  packed.trained.assign(nt, 0);
  for (size_t t = 0; t < nt; ++t) {
    if (!models[t].trained()) continue;  // scores 0.5 like Predict
    AT_CHECK(models[t].dim() == dim);
    packed.trained[t] = 1;
    packed.biases[t] = models[t].bias();
    const std::vector<double>& w = models[t].weights();
    for (size_t j = 0; j < dim; ++j) packed.wt[j * nt + t] = w[j];
  }
  return packed;
}

}  // namespace

std::unique_ptr<CtaModelZoo> CtaModelZoo::Train(const CtaZooConfig& config) {
  AT_CHECK(!config.type_names.empty());
  const ml::FeatureExtractor extractor(config.feature_config);
  std::vector<ml::LogisticRegression> models(config.type_names.size());

  const auto& gaz = datagen::Gazetteer::Instance();
  // One classifier per chunk: training cost varies with domain size, so
  // work stealing at item granularity keeps the pool busy.
  util::parallel::Options par_opt;
  par_opt.grain = 1;
  util::parallel::ParallelFor(config.type_names.size(), [&](size_t t) {
    const std::string& type_name = config.type_names[t];
    const datagen::Domain* domain = gaz.Find(type_name);
    AT_CHECK_MSG(domain != nullptr, type_name.c_str());
    util::Rng rng(config.seed ^ util::Fnv64(type_name));

    // Positives: head values (with casing variants), oversampled to
    // balance the negatives, plus tail values added once with low weight.
    // Like a real pre-trained CTA model, the classifier is confident on
    // common members and lukewarm on rare ones — the micro-level
    // miscalibration of the paper's Example 2: rare valid values score in
    // the middle, so naive per-value thresholds misflag them while SDCs'
    // calibrated outer balls spare them.
    std::vector<std::string> positives;
    for (const auto& v : domain->head) {
      positives.push_back(v);
      positives.push_back(TitleCase(v));
    }
    if (domain->has_generator()) {
      for (int i = 0; i < 150; ++i) positives.push_back(domain->generator(rng));
    }
    size_t neg_count =
        std::max(config.negatives_per_type, positives.size());
    std::vector<std::string> negatives =
        SampleNegatives(type_name, neg_count, &rng);
    // Balance the classes: small domains would otherwise be swamped by
    // negatives and the classifier would underfit toward "no".
    size_t base_positives = positives.size();
    while (positives.size() < negatives.size()) {
      positives.push_back(positives[positives.size() % base_positives]);
    }
    for (const auto& v : domain->tail) {
      positives.push_back(v);  // once: rare values are weakly represented
    }

    std::vector<std::vector<float>> x;
    std::vector<int> y;
    x.reserve(positives.size() + negatives.size());
    for (const auto& v : positives) {
      x.push_back(extractor.Extract(v));
      y.push_back(1);
    }
    for (const auto& v : negatives) {
      x.push_back(extractor.Extract(v));
      y.push_back(0);
    }
    ml::LogRegConfig train = config.train_config;
    train.seed = config.seed ^ (t * 0x9e37ULL);
    models[t].Train(x, y, train);
  }, par_opt);
  return FromWeights(config, Pack(models, extractor.dim()));
}

std::unique_ptr<CtaModelZoo> CtaModelZoo::FromWeights(
    CtaZooConfig config, PackedZooWeights weights) {
  const size_t nt = config.type_names.size();
  const size_t dim = ml::FeatureExtractor(config.feature_config).dim();
  AT_CHECK(weights.wt.size() == dim * nt);
  AT_CHECK(weights.biases.size() == nt);
  AT_CHECK(weights.trained.size() == nt);
  // ScoreAllTypes skips zero features, which is exact only while every
  // weight times zero is a zero.
  for (double w : weights.wt) AT_CHECK(std::isfinite(w));
  return std::unique_ptr<CtaModelZoo>(
      new CtaModelZoo(std::move(config), std::move(weights)));
}

void CtaModelZoo::ScoreAllTypes(std::span<const float> features,
                                float* scores) const {
  const size_t nt = num_types();
  AT_CHECK(features.size() == extractor_.dim());
  thread_local std::vector<double> accumulators;
  accumulators.assign(weights_.biases.begin(), weights_.biases.end());
  double* acc = accumulators.data();
  for (size_t j = 0; j < features.size(); ++j) {
    // A zero feature only adds signed zeros (every weight is finite),
    // which cannot change a score (DESIGN.md §4k).
    if (features[j] == 0.0f) continue;
    const double xj = static_cast<double>(features[j]);
    const double* row = &weights_.wt[j * nt];
    for (size_t t = 0; t < nt; ++t) acc[t] += row[t] * xj;
  }
  for (size_t t = 0; t < nt; ++t) {
    scores[t] = weights_.trained[t] != 0
                    ? static_cast<float>(ml::Sigmoid(acc[t]))
                    : 0.5f;
  }
}

void CtaModelZoo::ScoreRows(std::span<const std::string_view> values,
                            float* out, util::MemoWrite write) const {
  cache_.Fill(values, num_types(), out, /*ok=*/nullptr, write,
              [this](std::string_view value, float* scores) {
                thread_local std::vector<float> features;
                extractor_.Extract(value, &features);
                ScoreAllTypes(features, scores);
                return true;
              });
}

CtaZooConfig SherlockSimConfig() {
  const auto& gaz = datagen::Gazetteer::Instance();
  std::vector<std::string> all =
      gaz.DomainNames(datagen::DomainKind::kNaturalLanguage);
  CtaZooConfig config;
  config.name = "sherlock-sim";
  // Sherlock covers fewer types than Doduo: take ~60% of the NL domains.
  for (size_t i = 0; i < all.size(); ++i) {
    if (i % 5 != 4 && i % 5 != 2) config.type_names.push_back(all[i]);
  }
  config.feature_config.hash_dim = 248;
  config.feature_config.seed = 0x5e1;
  config.train_config.epochs = 25;
  config.seed = 0x5e1f00d;
  return config;
}

CtaZooConfig DoduoSimConfig() {
  const auto& gaz = datagen::Gazetteer::Instance();
  CtaZooConfig config;
  config.name = "doduo-sim";
  config.type_names = gaz.DomainNames(datagen::DomainKind::kNaturalLanguage);
  config.feature_config.hash_dim = 312;
  config.feature_config.seed = 0xd0d;
  config.train_config.epochs = 25;
  config.seed = 0xd0d0f00d;
  return config;
}

}  // namespace autotest::typedet
