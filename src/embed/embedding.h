#ifndef AUTOTEST_EMBED_EMBEDDING_H_
#define AUTOTEST_EMBED_EMBEDDING_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "embed/vector_math.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace autotest::embed {

/// A text-embedding model mapping cell values to vectors, the paper's
/// second family of domain-evaluation functions (Equation 2).
///
/// These are *simulations* of pre-trained embeddings (GloVe /
/// Sentence-BERT); see DESIGN.md. They are built from the gazetteer's
/// domain memberships — the stand-in for what a real embedding absorbed
/// from web text — and preserve the calibration geometry the paper relies
/// on: same-domain common values cluster tightly, rare valid values form a
/// middle ring, and unrelated strings land far away.
class EmbeddingModel {
 public:
  virtual ~EmbeddingModel() = default;

  virtual const std::string& name() const = 0;
  virtual size_t dim() const = 0;

  /// Embeds the value; returns false when the value is out of vocabulary
  /// (only GloveSim has a closed vocabulary).
  virtual bool Embed(const std::string& value, Vector* out) const = 0;

  /// Memoized Embed: vectors are computed once per distinct value (the
  /// embedding computation dominates distance evaluation against many
  /// centroids). Bounded cache.
  bool EmbedCached(const std::string& value, Vector* out) const;

  /// Batched EmbedCached over a block of values: writes values.size()
  /// row-major dim()-wide rows into `out` and per-value embeddability
  /// flags into `ok` (rows with ok == 0 are zero-filled). One cache pass
  /// for the whole block — lookups under a single lock, misses computed
  /// outside it, then inserted under one more lock — instead of a
  /// lock/find/copy per value. The rows are what every per-centroid
  /// distance of this model reads. Bit-identical to per-value EmbedCached.
  void EmbedBlockCached(std::span<const std::string_view> values, float* out,
                        uint8_t* ok) const;

  /// Distance reported for value pairs involving an OOV value.
  virtual double oov_distance() const = 0;

  /// Distance between two values: Euclidean between embeddings, or
  /// oov_distance() when either side is OOV.
  double Distance(const std::string& a, const std::string& b) const;

 private:
  // Transparent hashing so EmbedBlockCached lookups by string_view need no
  // temporary std::string per probed value.
  struct ValueHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  static constexpr size_t kMaxCacheEntries = 2'000'000;
  mutable util::Mutex cache_mu_;
  mutable std::unordered_map<std::string, std::pair<bool, Vector>, ValueHash,
                             std::equal_to<>>
      cache_ AT_GUARDED_BY(cache_mu_);
};

/// GloVe-like embedding: closed vocabulary consisting of the *head* values
/// of every natural-language domain. Rare-but-valid values (domain tails)
/// are OOV — exactly the failure mode of the paper's Example 2 ("omayra"
/// gets no vector, so naive embedding-based detectors misflag it).
std::unique_ptr<EmbeddingModel> MakeGloveSim(uint64_t seed = 0x61ce);

/// Sentence-BERT-like embedding: open vocabulary. Every value gets a
/// vector that blends a semantic component (strong for head members, weak
/// for tail members, absent for unknown strings) with a character-level
/// lexical component. Typos land measurably farther from domain centroids
/// than rare valid members.
std::unique_ptr<EmbeddingModel> MakeSbertSim(uint64_t seed = 0x5be7);

/// Process-shared instances of the default-seed models, built once on
/// first use. The models are pure functions of their seeds, so every
/// EvalFunctionSet::Build can reuse one instance — and its warm embedding
/// cache — instead of constructing a cold model per corpus. Thread-safe.
std::shared_ptr<EmbeddingModel> SharedGloveSim();
std::shared_ptr<EmbeddingModel> SharedSbertSim();

}  // namespace autotest::embed

#endif  // AUTOTEST_EMBED_EMBEDDING_H_
