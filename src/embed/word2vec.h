#ifndef PAE_EMBED_WORD2VEC_H_
#define PAE_EMBED_WORD2VEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "math/matrix.h"
#include "text/vocab.h"
#include "util/rng.h"
#include "util/status.h"

namespace pae::embed {

/// Word2vec hyper-parameters (skip-gram with negative sampling).
struct Word2VecOptions {
  int dim = 50;
  int window = 4;       // maximum context distance (sampled per position)
  int negative = 5;     // negative samples per positive pair
  int epochs = 3;
  float learning_rate = 0.025f;
  int min_count = 2;    // words rarer than this are dropped
  /// Frequent-word subsampling threshold (Mikolov et al.): tokens with
  /// corpus frequency f are kept with probability
  /// (sqrt(f/t)+1)·t/f. Without it, particles/copulas dominate every
  /// context window and all content words look alike. 0 disables.
  double subsample = 1e-3;
  uint64_t seed = 7;
  /// Training shards per epoch. 1 (default) is the classic sequential
  /// SGD pass. With shards > 1 each epoch splits the corpus into this
  /// many fixed contiguous shards, trains each on a private copy of the
  /// matrices with its own RNG stream derived from (seed, epoch, shard),
  /// and merges the per-shard deltas in shard order — so the result
  /// depends on `shards` but never on `threads`.
  int shards = 1;
  /// Threads executing the shards (0 = all hardware threads, negative
  /// clamps to 1). Never affects the trained vectors, only wall-clock.
  int threads = 1;
};

/// Skip-gram word2vec trained from scratch on the product-page corpus of
/// the current bootstrap iteration (§V-C: embeddings cannot be reused
/// across iterations because each iteration discovers new entities,
/// which the semantic-cleaning module must be able to place). So the
/// vectors live only as long as the cycle that trained them: there is
/// no file format for them, and the deployed `.paez` artifact holds the
/// CRF alone.
class Word2Vec {
 public:
  explicit Word2Vec(Word2VecOptions options = {});

  /// Trains on tokenized sentences. Multi-word attribute values must be
  /// pre-merged into single tokens by the caller (§V-C step i).
  Status Train(const std::vector<std::vector<std::string>>& sentences);

  /// Returns the input vector of `word`, or nullptr if out of vocabulary.
  const float* Vector(const std::string& word) const;

  size_t dim() const { return static_cast<size_t>(options_.dim); }
  size_t vocab_size() const { return vocab_.size(); }
  bool Contains(const std::string& word) const;

  /// Cosine similarity of two in-vocabulary words; 0 if either is OOV.
  double Similarity(const std::string& a, const std::string& b) const;

  /// Cosine similarity between raw vectors of dimension dim().
  static double Cosine(const float* a, const float* b, size_t dim);

 private:
  Word2VecOptions options_;
  text::Vocab vocab_;
  std::vector<int64_t> counts_;   // per vocab id
  math::Matrix in_vectors_;       // |V| × dim (the published embeddings)
  math::Matrix out_vectors_;      // |V| × dim (context vectors)
  std::vector<int32_t> unigram_table_;
  bool trained_ = false;
};

}  // namespace pae::embed

#endif  // PAE_EMBED_WORD2VEC_H_
