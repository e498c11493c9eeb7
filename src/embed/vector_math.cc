#include "embed/vector_math.h"

#include <cmath>
#include <string>

#include "util/check.h"
#include "util/hashing.h"
#include "util/string_util.h"

namespace autotest::embed {

double Dot(const Vector& a, const Vector& b) {
  AT_CHECK(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    s += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return s;
}

double Norm(const Vector& a) { return std::sqrt(Dot(a, a)); }

void Normalize(Vector* v) {
  double n = Norm(*v);
  if (n == 0.0) return;
  for (float& x : *v) x = static_cast<float>(x / n);
}

void Scale(Vector* v, double factor) {
  for (float& x : *v) x = static_cast<float>(x * factor);
}

void AddScaled(Vector* a, const Vector& b, double factor) {
  AT_CHECK(a->size() == b.size());
  for (size_t i = 0; i < b.size(); ++i) {
    (*a)[i] += static_cast<float>(factor * static_cast<double>(b[i]));
  }
}

Vector HashGaussianUnit(std::string_view key, uint64_t seed, size_t dim) {
  Vector v(dim);
  uint64_t h = util::Fnv64Seeded(key, seed);
  for (size_t i = 0; i < dim; ++i) {
    h = util::SplitMix64(h + i + 1);
    uint64_t h2 = util::SplitMix64(h ^ 0xabcdef);
    // Box-Muller from two uniform hashes.
    double u1 = util::HashToUnitDouble(h);
    double u2 = util::HashToUnitDouble(h2);
    u1 = std::max(u1, 1e-12);
    v[i] = static_cast<float>(std::sqrt(-2.0 * std::log(u1)) *
                              std::cos(2.0 * M_PI * u2));
  }
  Normalize(&v);
  return v;
}

Vector LexicalVector(std::string_view value, uint64_t seed, size_t dim) {
  Vector v(dim, 0.0f);
  std::string marked = "^" + util::ToLower(value) + "$";
  for (int n = 2; n <= 3; ++n) {
    if (marked.size() < static_cast<size_t>(n)) continue;
    for (size_t i = 0; i + static_cast<size_t>(n) <= marked.size(); ++i) {
      std::string_view gram(marked.data() + i, static_cast<size_t>(n));
      uint64_t h = util::Fnv64Seeded(gram, seed);
      float sign = (util::SplitMix64(h) & 1) ? 1.0f : -1.0f;
      v[h % dim] += sign;
    }
  }
  Normalize(&v);
  return v;
}

}  // namespace autotest::embed
