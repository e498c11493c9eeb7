#include "ml/features.h"

#include <cctype>
#include <cmath>
#include <string>

#include "util/hashing.h"
#include "util/string_util.h"

namespace autotest::ml {

void FeatureExtractor::Extract(std::string_view value,
                               std::vector<float>* features) const {
  std::vector<float>& out = *features;
  out.assign(dim(), 0.0f);

  std::string lowered = util::ToLower(value);
  std::string marked = "^" + lowered + "$";

  for (int n = config_.min_n; n <= config_.max_n; ++n) {
    if (marked.size() < static_cast<size_t>(n)) continue;
    for (size_t i = 0; i + static_cast<size_t>(n) <= marked.size(); ++i) {
      std::string_view gram(marked.data() + i, static_cast<size_t>(n));
      uint64_t h = util::Fnv64Seeded(gram, config_.seed);
      size_t bucket = h % config_.hash_dim;
      // Signed hashing reduces collision bias.
      float sign = (util::SplitMix64(h) & 1) ? 1.0f : -1.0f;
      out[bucket] += sign;
    }
  }
  // L2-normalize the n-gram block.
  double norm = 0.0;
  for (size_t i = 0; i < config_.hash_dim; ++i) {
    norm += static_cast<double>(out[i]) * static_cast<double>(out[i]);
  }
  if (norm > 0.0) {
    float inv = static_cast<float>(1.0 / std::sqrt(norm));
    for (size_t i = 0; i < config_.hash_dim; ++i) out[i] *= inv;
  }

  // Shape features.
  size_t len = value.size();
  size_t digits = 0;
  size_t alphas = 0;
  size_t uppers = 0;
  size_t puncts = 0;
  size_t spaces = 0;
  for (unsigned char c : value) {
    if (std::isdigit(c)) ++digits;
    if (std::isalpha(c)) ++alphas;
    if (std::isupper(c)) ++uppers;
    if (std::ispunct(c)) ++puncts;
    if (std::isspace(c)) ++spaces;
  }
  double dlen = static_cast<double>(len);
  size_t base = config_.hash_dim;
  out[base + 0] = static_cast<float>(std::min(1.0, dlen / 32.0));
  out[base + 1] = len ? static_cast<float>(digits / dlen) : 0.0f;
  out[base + 2] = len ? static_cast<float>(alphas / dlen) : 0.0f;
  out[base + 3] = len ? static_cast<float>(uppers / dlen) : 0.0f;
  out[base + 4] = len ? static_cast<float>(puncts / dlen) : 0.0f;
  out[base + 5] = static_cast<float>(std::min<size_t>(spaces + 1, 5)) / 5.0f;
  out[base + 6] = (len > 0 && std::isdigit(static_cast<unsigned char>(
                                  value.front())))
                      ? 1.0f
                      : 0.0f;
  out[base + 7] = 1.0f;  // bias-like constant feature
}

}  // namespace autotest::ml
