#include <cmath>

#include "embed/vector_math.h"
#include "util/check.h"

namespace autotest::embed {

namespace {

// K centroids at once: one double accumulator per centroid, each summed
// over the dimensions in order, so every distance has the bits of the
// scalar loop. With K fixed the accumulators stay in registers and the
// centroid lanes vectorize.
template <size_t K>
void Distances(const float* rows, const uint8_t* ok, size_t n, size_t dim,
               const float* centroids, double oov, double* const* out) {
  for (size_t i = 0; i < n; ++i) {
    if (ok != nullptr && ok[i] == 0) {
      for (size_t c = 0; c < K; ++c) out[c][i] = oov;
      continue;
    }
    const float* row = rows + i * dim;
    double acc[K] = {};
    for (size_t j = 0; j < dim; ++j) {
      const double x = static_cast<double>(row[j]);
      const float* cj = centroids + j * K;
      for (size_t c = 0; c < K; ++c) {
        const double d = x - static_cast<double>(cj[c]);
        acc[c] += d * d;
      }
    }
    for (size_t c = 0; c < K; ++c) out[c][i] = std::sqrt(acc[c]);
  }
}

}  // namespace

void GroupedDistances(const float* rows, const uint8_t* ok, size_t n,
                      size_t dim, const float* centroids, size_t k,
                      double oov, double* const* out) {
  switch (k) {
    case 1:
      return Distances<1>(rows, ok, n, dim, centroids, oov, out);
    case 2:
      return Distances<2>(rows, ok, n, dim, centroids, oov, out);
    case 3:
      return Distances<3>(rows, ok, n, dim, centroids, oov, out);
    case 4:
      return Distances<4>(rows, ok, n, dim, centroids, oov, out);
    case 5:
      return Distances<5>(rows, ok, n, dim, centroids, oov, out);
    case 6:
      return Distances<6>(rows, ok, n, dim, centroids, oov, out);
    case 7:
      return Distances<7>(rows, ok, n, dim, centroids, oov, out);
    case 8:
      return Distances<8>(rows, ok, n, dim, centroids, oov, out);
  }
  AT_CHECK_MSG(false, "GroupedDistances takes 1 to kMaxCentroidGroup");
}

}  // namespace autotest::embed
