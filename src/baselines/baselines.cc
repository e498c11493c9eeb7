#include "baselines/baselines.h"

#include <algorithm>
#include <cmath>

#include "datagen/gazetteer.h"
#include "ml/features.h"
#include "outlier/outlier.h"
#include "pattern/miner.h"
#include "stats/statistics.h"
#include "util/hashing.h"
#include "util/string_util.h"

namespace autotest::baselines {

namespace {

// Shared per-value feature extractor for the outlier baselines.
const ml::FeatureExtractor& OutlierFeatures() {
  static const auto& fx = *new ml::FeatureExtractor([] {
    ml::FeatureConfig cfg;
    cfg.hash_dim = 24;
    cfg.seed = 0x0071;
    return cfg;
  }());
  return fx;
}

// Maps per-distinct-value scores back to rows through each row's
// distinct index, z-scores them, and emits one ScoredCell per row whose
// z-score exceeds the cutoff.
std::vector<eval::ScoredCell> FlagByZScore(
    const table::DistinctValues& distinct,
    const std::vector<double>& distinct_scores, double z_cutoff) {
  std::vector<double> row_scores(distinct.row_index.size());
  for (size_t row = 0; row < row_scores.size(); ++row) {
    row_scores[row] = distinct_scores[distinct.row_index[row]];
  }
  std::vector<double> z = stats::ZScores(row_scores);
  std::vector<eval::ScoredCell> out;
  for (size_t row = 0; row < z.size(); ++row) {
    if (z[row] > z_cutoff) out.push_back({row, z[row]});
  }
  return out;
}

double DeterministicCoin(const std::string& column_key,
                         const std::string& value, uint64_t seed) {
  return util::HashToUnitDouble(
      util::Fnv64Seeded(column_key + "\x1f" + value, seed));
}

}  // namespace

// ---------------------------------------------------------------------------
// SdcDetector
// ---------------------------------------------------------------------------

std::vector<eval::ScoredCell> SdcDetector::Detect(
    const table::Column& column) const {
  std::vector<eval::ScoredCell> out;
  for (const auto& d : predictor_->Predict(column)) {
    out.push_back({d.row, d.confidence});
  }
  return out;
}

// ---------------------------------------------------------------------------
// CtaZScoreDetector
// ---------------------------------------------------------------------------

std::vector<eval::ScoredCell> CtaZScoreDetector::Detect(
    const table::Column& column) const {
  if (column.values.empty()) return {};
  table::DistinctValues distinct = table::Distinct(column);
  const std::vector<std::string_view> views(distinct.values.begin(),
                                            distinct.values.end());
  const size_t nt = zoo_->num_types();
  std::vector<float> rows(views.size() * nt);
  zoo_->ScoreRows(views, rows.data(), util::MemoWrite::kInsert);
  // Macro step: the best-matching type for the column.
  double best_mean = -1.0;
  std::vector<double> best_scores;
  for (size_t t = 0; t < nt; ++t) {
    std::vector<double> scores(distinct.values.size());
    double mean = 0.0;
    double weight = 0.0;
    for (size_t i = 0; i < distinct.values.size(); ++i) {
      scores[i] = static_cast<double>(rows[i * nt + t]);
      mean += scores[i] * static_cast<double>(distinct.counts[i]);
      weight += static_cast<double>(distinct.counts[i]);
    }
    mean /= weight;
    if (mean > best_mean) {
      best_mean = mean;
      best_scores = std::move(scores);
    }
  }
  // Micro step: z-score the per-value distances (1 - score).
  for (double& score : best_scores) score = 1.0 - score;
  return FlagByZScore(distinct, best_scores, z_cutoff_);
}

// ---------------------------------------------------------------------------
// EmbeddingZScoreDetector
// ---------------------------------------------------------------------------

std::vector<eval::ScoredCell> EmbeddingZScoreDetector::Detect(
    const table::Column& column) const {
  if (column.values.empty()) return {};
  table::DistinctValues distinct = table::Distinct(column);
  const std::vector<std::string_view> views(distinct.values.begin(),
                                            distinct.values.end());
  const size_t dim = model_->dim();
  std::vector<float> rows(views.size() * dim);
  std::vector<uint8_t> ok(views.size());
  model_->EmbedBlockCached(views, rows.data(), ok.data(),
                           util::MemoWrite::kInsert);
  // Column centroid over embeddable values.
  embed::Vector centroid(dim, 0.0f);
  double total = 0.0;
  for (size_t i = 0; i < views.size(); ++i) {
    if (ok[i] == 0) continue;
    const float* row = rows.data() + i * dim;
    embed::AddScaled(&centroid, embed::Vector(row, row + dim),
                     static_cast<double>(distinct.counts[i]));
    total += static_cast<double>(distinct.counts[i]);
  }
  if (total > 0.0) embed::Scale(&centroid, 1.0 / total);

  std::vector<double> dist(views.size());
  double* const out[] = {dist.data()};
  embed::GroupedDistances(rows.data(), ok.data(), views.size(), dim,
                          centroid.data(), 1, model_->oov_distance(), out);
  return FlagByZScore(distinct, dist, z_cutoff_);
}

// ---------------------------------------------------------------------------
// RegexDetector
// ---------------------------------------------------------------------------

std::vector<eval::ScoredCell> RegexDetector::Detect(
    const table::Column& column) const {
  if (column.values.empty()) return {};
  pattern::Pattern dominant = pattern::DominantPattern(
      column, pattern::GeneralizationLevel::kGeneral, dominance_);
  if (dominant.empty()) return {};
  size_t matching = 0;
  for (const auto& v : column.values) {
    if (dominant.Matches(v)) ++matching;
  }
  double frac = static_cast<double>(matching) /
                static_cast<double>(column.values.size());
  std::vector<eval::ScoredCell> out;
  for (size_t row = 0; row < column.values.size(); ++row) {
    if (!dominant.Matches(column.values[row])) out.push_back({row, frac});
  }
  return out;
}

// ---------------------------------------------------------------------------
// FunctionDetector
// ---------------------------------------------------------------------------

std::vector<eval::ScoredCell> FunctionDetector::Detect(
    const table::Column& column) const {
  if (column.values.empty()) return {};
  table::DistinctValues distinct = table::Distinct(column);
  const typedet::NamedValidator* best = nullptr;
  double best_frac = 0.0;
  for (const auto& v : typedet::AllValidators()) {
    if (!library_.empty() && v.library != library_) continue;
    size_t pass = 0;
    for (size_t i = 0; i < distinct.values.size(); ++i) {
      if (v.fn(distinct.values[i])) pass += distinct.counts[i];
    }
    double frac = static_cast<double>(pass) /
                  static_cast<double>(distinct.total);
    if (frac > best_frac) {
      best_frac = frac;
      best = &v;
    }
  }
  if (best == nullptr || best_frac < min_pass_fraction_) return {};
  std::vector<eval::ScoredCell> out;
  for (size_t row = 0; row < column.values.size(); ++row) {
    if (!best->fn(column.values[row])) out.push_back({row, best_frac});
  }
  return out;
}

// ---------------------------------------------------------------------------
// OutlierDetectorBaseline
// ---------------------------------------------------------------------------

OutlierDetectorBaseline::OutlierDetectorBaseline(OutlierKind kind)
    : kind_(kind) {
  switch (kind) {
    case OutlierKind::kLof:
      name_ = "lof";
      break;
    case OutlierKind::kDbod:
      name_ = "dbod";
      break;
    case OutlierKind::kRkde:
      name_ = "rkde";
      break;
    case OutlierKind::kPpca:
      name_ = "ppca";
      break;
    case OutlierKind::kIForest:
      name_ = "iforest";
      break;
    case OutlierKind::kSvdd:
      name_ = "svdd";
      break;
  }
}

std::vector<eval::ScoredCell> OutlierDetectorBaseline::Detect(
    const table::Column& column) const {
  if (column.values.size() < 4) return {};
  table::DistinctValues distinct = table::Distinct(column);
  if (distinct.values.size() < 3) return {};
  std::vector<outlier::Point> points;
  points.reserve(distinct.values.size());
  for (const auto& v : distinct.values) {
    points.push_back(OutlierFeatures().Extract(v));
  }
  std::vector<double> scores;
  switch (kind_) {
    case OutlierKind::kLof:
      scores = outlier::LofScores(points, 10);
      break;
    case OutlierKind::kDbod:
      scores = outlier::KnnDistanceScores(points, 5);
      break;
    case OutlierKind::kRkde:
      scores = outlier::RkdeScores(points);
      break;
    case OutlierKind::kPpca:
      scores = outlier::PpcaScores(points, 4);
      break;
    case OutlierKind::kIForest:
      scores = outlier::IForestScores(points);
      break;
    case OutlierKind::kSvdd:
      scores = outlier::SvddScores(points);
      break;
  }
  // Flags the values scoring over one standard deviation above the mean.
  return FlagByZScore(distinct, scores, 1.0);
}

// ---------------------------------------------------------------------------
// AutoDetectSim
// ---------------------------------------------------------------------------

AutoDetectSim AutoDetectSim::Train(const table::Corpus& corpus) {
  AutoDetectSim sim;
  for (const auto& column : corpus) {
    table::DistinctValues distinct = table::Distinct(column);
    if (distinct.values.size() < 3) continue;
    // Top patterns present in the column (cap to bound memory).
    std::unordered_map<std::string, size_t> counts;
    for (size_t i = 0; i < distinct.values.size(); ++i) {
      counts[pattern::Generalize(distinct.values[i],
                                 pattern::GeneralizationLevel::kGeneral)
                 .ToString()] += distinct.counts[i];
    }
    std::vector<std::pair<size_t, std::string>> ordered;
    for (auto& [p, c] : counts) ordered.push_back({c, p});
    std::sort(ordered.rbegin(), ordered.rend());
    if (ordered.size() > 10) ordered.resize(10);
    for (size_t a = 0; a < ordered.size(); ++a) {
      ++sim.pattern_columns_[ordered[a].second];
      for (size_t b = 0; b < ordered.size(); ++b) {
        if (a == b) continue;
        ++sim.pair_columns_[ordered[a].second + "\x1f" + ordered[b].second];
      }
    }
  }
  return sim;
}

std::vector<eval::ScoredCell> AutoDetectSim::Detect(
    const table::Column& column) const {
  if (column.values.empty()) return {};
  // Dominant pattern of the column.
  std::unordered_map<std::string, size_t> counts;
  for (const auto& v : column.values) {
    ++counts[pattern::Generalize(v, pattern::GeneralizationLevel::kGeneral)
                 .ToString()];
  }
  std::string dominant;
  size_t dom_count = 0;
  for (const auto& [p, c] : counts) {
    if (c > dom_count) {
      dom_count = c;
      dominant = p;
    }
  }
  if (dom_count * 2 < column.values.size()) return {};
  auto hit = pattern_columns_.find(dominant);
  double dom_support =
      hit == pattern_columns_.end() ? 0.0 : static_cast<double>(hit->second);
  if (dom_support < 2) return {};

  std::vector<eval::ScoredCell> out;
  for (size_t row = 0; row < column.values.size(); ++row) {
    std::string p =
        pattern::Generalize(column.values[row],
                            pattern::GeneralizationLevel::kGeneral)
            .ToString();
    if (p == dominant) continue;
    auto co = pair_columns_.find(dominant + "\x1f" + p);
    double co_count =
        co == pair_columns_.end() ? 0.0 : static_cast<double>(co->second);
    // Pointwise incompatibility: patterns that rarely co-occur with the
    // dominant pattern across the corpus are suspicious.
    double prob = (co_count + 0.5) / (dom_support + 1.0);
    if (prob < 0.25) out.push_back({row, -std::log(prob)});
  }
  return out;
}

// ---------------------------------------------------------------------------
// KataraSim
// ---------------------------------------------------------------------------

namespace {

// The slice of the gazetteer a symbolic knowledge base (YAGO-style) would
// plausibly contain: encyclopedic entity types only, and only their common
// members. Rare-but-valid values are missing from the KB — the source of
// Katara's false positives in the paper's comparison.
bool InKataraKb(const datagen::Domain& domain) {
  static const char* const kKbDomains[] = {
      "country", "city_us",   "city_world", "us_state_name", "language",
      "element", "sport",     "fruit",      "month",         "weekday",
      "color",   "first_name", "last_name"};
  for (const char* name : kKbDomains) {
    if (domain.name == name) return true;
  }
  return false;
}

bool KbContains(const datagen::Domain& domain, const std::string& value) {
  std::string lowered = util::ToLower(value);
  for (const auto& v : domain.head) {
    if (v == lowered) return true;
  }
  return false;  // tails are not in the KB
}

}  // namespace

std::vector<eval::ScoredCell> KataraSim::Detect(
    const table::Column& column) const {
  if (column.values.empty()) return {};
  const auto& gaz = datagen::Gazetteer::Instance();
  table::DistinctValues distinct = table::Distinct(column);

  // Map the column to the KB type with the best (head-only) coverage.
  const datagen::Domain* best_domain = nullptr;
  size_t best_cover = 0;
  for (const auto& domain : gaz.domains()) {
    if (!InKataraKb(domain)) continue;
    size_t cover = 0;
    for (size_t i = 0; i < distinct.values.size(); ++i) {
      if (KbContains(domain, distinct.values[i])) {
        cover += distinct.counts[i];
      }
    }
    if (cover > best_cover) {
      best_cover = cover;
      best_domain = &domain;
    }
  }
  if (best_domain == nullptr ||
      static_cast<double>(best_cover) <
          coverage_threshold_ * static_cast<double>(distinct.total)) {
    return {};
  }
  std::vector<eval::ScoredCell> out;
  for (size_t row = 0; row < column.values.size(); ++row) {
    // Anything outside the KB is reported — including valid rare members
    // the KB simply does not know. Static threshold, uncalibrated score.
    if (!KbContains(*best_domain, column.values[row])) {
      out.push_back({row, 1.0});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// LlmSim
// ---------------------------------------------------------------------------

std::vector<LlmSim::Config> LlmSim::PaperVariants() {
  return {
      {"gpt-few-shot-with-cot", 0.85, 0.10, 0.004, 9001},
      {"gpt-few-shot-no-cot", 0.85, 0.14, 0.006, 9002},
      {"gpt-zero-shot-with-cot", 0.80, 0.16, 0.008, 9003},
      {"gpt-zero-shot-no-cot", 0.72, 0.22, 0.012, 9004},
      {"gpt-finetuned", 0.90, 0.28, 0.015, 9005},
  };
}

std::vector<eval::ScoredCell> LlmSim::Detect(
    const table::Column& column) const {
  if (column.values.empty()) return {};
  const auto& gaz = datagen::Gazetteer::Instance();
  table::DistinctValues distinct = table::Distinct(column);
  std::string column_key =
      column.name + "|" + std::to_string(column.values.size());

  // What the "LLM" believes about the column: majority semantic domain (if
  // any), else dominant syntactic pattern.
  std::unordered_map<size_t, size_t> domain_cover;
  for (size_t i = 0; i < distinct.values.size(); ++i) {
    const auto* m = gaz.Lookup(distinct.values[i]);
    if (m == nullptr) continue;
    for (const auto& mem : *m) {
      domain_cover[mem.domain_index] += distinct.counts[i];
    }
  }
  size_t best_domain = gaz.domains().size();
  size_t best_cover = 0;
  for (const auto& [d, c] : domain_cover) {
    if (c > best_cover) {
      best_cover = c;
      best_domain = d;
    }
  }
  bool has_domain =
      best_domain < gaz.domains().size() &&
      static_cast<double>(best_cover) >=
          0.6 * static_cast<double>(distinct.total);
  pattern::Pattern dominant = pattern::DominantPattern(
      column, pattern::GeneralizationLevel::kGeneral, 0.6);

  std::vector<eval::ScoredCell> out;
  for (size_t row = 0; row < column.values.size(); ++row) {
    const std::string& v = column.values[row];
    bool suspicious = false;
    bool rare = false;
    if (has_domain) {
      const std::string& dn = gaz.domains()[best_domain].name;
      if (!gaz.Contains(dn, v)) {
        suspicious = true;
      } else {
        const auto* m = gaz.Lookup(v);
        if (m != nullptr) {
          for (const auto& mem : *m) {
            if (mem.domain_index == best_domain &&
                mem.tier == datagen::Tier::kTail) {
              rare = true;  // valid but uncommon: the LLM's trap
            }
          }
        }
      }
    } else if (!dominant.empty()) {
      suspicious = !dominant.Matches(v);
    }
    double coin = DeterministicCoin(column_key, v, config_.seed);
    bool flagged = false;
    if (suspicious) {
      flagged = coin < config_.true_positive_rate;
    } else if (rare) {
      flagged = coin < config_.fp_rate_rare;
    } else {
      flagged = coin < config_.fp_rate_base;
    }
    // Flat scores: LLM outputs are unranked, so the PR curve has a single
    // operating point (precision below 0.8 keeps F1@P=0.8 at 0, matching
    // the paper's GPT rows).
    if (flagged) out.push_back({row, 1.0});
  }
  return out;
}

// ---------------------------------------------------------------------------
// VendorSim
// ---------------------------------------------------------------------------

std::vector<eval::ScoredCell> VendorSim::Detect(
    const table::Column& column) const {
  if (column.values.empty()) return {};
  std::vector<eval::ScoredCell> out;
  if (kind_ == Kind::kA) {
    pattern::Pattern dominant = pattern::DominantPattern(
        column, pattern::GeneralizationLevel::kExactDigits, 0.9);
    if (dominant.empty()) return {};
    for (size_t row = 0; row < column.values.size(); ++row) {
      if (!dominant.Matches(column.values[row])) out.push_back({row, 1.0});
    }
    return out;
  }
  // Vendor-B: digit/punctuation intrusions in mostly-alphabetic columns.
  size_t alpha = 0;
  for (const auto& v : column.values) {
    if (util::AlphaRatio(v) > 0.8) ++alpha;
  }
  if (alpha * 10 < column.values.size() * 9) return {};
  for (size_t row = 0; row < column.values.size(); ++row) {
    if (util::AlphaRatio(column.values[row]) <= 0.5) {
      out.push_back({row, 1.0});
    }
  }
  return out;
}

}  // namespace autotest::baselines
