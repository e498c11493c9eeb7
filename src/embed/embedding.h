#ifndef AUTOTEST_EMBED_EMBEDDING_H_
#define AUTOTEST_EMBED_EMBEDDING_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "embed/vector_math.h"
#include "util/row_cache.h"

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
  /// (only GloveSim has a closed vocabulary). Uncached.
  virtual bool Embed(const std::string& value, Vector* out) const = 0;

  /// Memoized Embed over a block of values, the model's only cached entry
  /// point: writes values.size() row-major dim()-wide rows into `out` and
  /// per-value embeddability flags into `ok` (rows with ok == 0 are
  /// zero-filled). With util::MemoWrite::kInsert each distinct value is
  /// embedded once until the memo next clears (util::RowCache; the
  /// embedding dominates distance evaluation against many centroids);
  /// kReadOnly reads the memo and inserts nothing. The rows are what every
  /// centroid distance of this model reads.
  void EmbedBlockCached(std::span<const std::string_view> values, float* out,
                        uint8_t* ok, util::MemoWrite write) const;

  /// Distance reported for value pairs involving an OOV value.
  virtual double oov_distance() const = 0;

  /// Distance between two values: Euclidean between embeddings, or
  /// oov_distance() when either side is OOV.
  double Distance(std::string_view a, std::string_view b) const;

 private:
  mutable util::RowCache cache_;  // Embed per value; empty when OOV
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
