#ifndef AUTOTEST_EMBED_VECTOR_MATH_H_
#define AUTOTEST_EMBED_VECTOR_MATH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace autotest::embed {

using Vector = std::vector<float>;

/// Most centroids one GroupedDistances call takes.
inline constexpr size_t kMaxCentroidGroup = 8;

/// The embedding distance kernel. Writes the Euclidean distance from each
/// of `n` row-major `dim`-wide rows to each of `k` (1 to
/// kMaxCentroidGroup) centroids: out[c][i] receives row i's distance to
/// centroid c, or `oov` when ok[i] == 0 (`ok` may be null when every row
/// has a vector). `centroids` is dim x k with the centroid inner:
/// centroids[j * k + c] is element j of centroid c, so one centroid is
/// just its vector. Each distance sums (row[j] - centroid[j])^2 in double
/// over j in order with one accumulator per centroid, then takes the
/// square root: the bits of the one-centroid scalar loop at every k. The
/// lanes it vectorizes are the independent centroids, never a
/// reassociated sum (DESIGN.md §4k).
void GroupedDistances(const float* rows, const uint8_t* ok, size_t n,
                      size_t dim, const float* centroids, size_t k,
                      double oov, double* const* out);

/// Dot product.
double Dot(const Vector& a, const Vector& b);

/// L2 norm.
double Norm(const Vector& a);

/// Normalizes in place to unit length (no-op on the zero vector).
void Normalize(Vector* v);

/// Scales in place.
void Scale(Vector* v, double factor);

/// a += factor * b.
void AddScaled(Vector* a, const Vector& b, double factor);

/// Deterministic pseudo-Gaussian unit vector derived from a string key;
/// used for domain centroids and per-value noise.
Vector HashGaussianUnit(std::string_view key, uint64_t seed, size_t dim);

/// Character-trigram lexical vector (signed hashing, unit norm). Two
/// strings within small edit distance get strongly correlated vectors.
Vector LexicalVector(std::string_view value, uint64_t seed, size_t dim);

}  // namespace autotest::embed

#endif  // AUTOTEST_EMBED_VECTOR_MATH_H_
