#ifndef PAE_CRF_COMPILED_CORPUS_H_
#define PAE_CRF_COMPILED_CORPUS_H_

#include <cstdint>
#include <vector>

#include "crf/crf_model.h"
#include "crf/feature_extractor.h"
#include "text/labeled_sequence.h"
#include "util/interner.h"

namespace pae::crf {

/// Feature-compilation cache for repeated tagging of a fixed sentence
/// set — the bootstrap loop's dominant pattern: every Tagger–Cleaner
/// cycle retrains the CRF and re-tags the *same* unlabeled sentences.
///
/// Feature *extraction* (the string template) depends only on the
/// FeatureConfig, never on the trained model, so it is done exactly
/// once per corpus: `Build` encodes every sentence through the
/// allocation-free `FeatureEncoder` and interns each feature into a
/// corpus-level dictionary, leaving one flat array of corpus-space
/// feature ids.
///
/// Feature *ids* depend on the model's dictionary, which changes every
/// time the tagger retrains. `Bind` recomputes the corpus-id →
/// model-id remap once per tagger generation (keyed by
/// `CrfTagger::Generation()`); `Materialize` then compiles any sentence
/// with a remap gather — no hashing, no string formatting, no
/// allocation beyond the output vectors.
///
/// Grouping: a CRF's tags and confidences are a function of its
/// compiled input alone — each token's model feature ids, in order —
/// so sentences with equal compiled inputs need scoring once. `Build`
/// finds exact repeats (crawl boilerplate) by their text: tokens, PoS
/// tags and sentence bucket fix the corpus-space ids one to one, so a
/// repeat is mapped onto its first copy without being encoded or
/// stored again. `Bind` then sorts the stored sentences into *groups*
/// of equal model-space input: unknown features dropped, token
/// boundaries kept, compared in place. Sentences that differ only
/// where the bound model knows no feature share a group under that
/// generation and may split under the next, so every `Bind` to a new
/// generation regroups. Groups are numbered in order of their first
/// sentence; `MaterializeGroup(group(i))` equals `Materialize(i)`. The
/// tables cost one 32-bit id per sentence plus one per stored sentence
/// and per group.
///
/// Thread contract: `Build` and `Bind` mutate and must run outside any
/// parallel region; `Materialize`, `MaterializeGroup` and the group
/// queries are const and safe to call from many threads once bound.
class CompiledCorpus {
 public:
  /// Extracts and interns the features of every sentence. Pointers must
  /// stay valid while the cache is used. Deterministic: the corpus
  /// dictionary depends only on the sentence order and the config.
  void Build(std::vector<const text::LabeledSequence*> sentences,
             const FeatureConfig& config);

  size_t size() const { return stored_of_.size(); }
  bool built() const { return !sentence_begin_.empty(); }
  /// Distinct features across the corpus (the dictionary size).
  size_t num_corpus_features() const { return features_.size(); }
  /// Sentences whose corpus-space ids differ from every earlier one's.
  size_t num_stored() const {
    return built() ? sentence_begin_.size() - 1 : 0;
  }

  /// Recomputes the corpus→model feature remap and the groups unless
  /// `generation` matches the one already bound.
  void Bind(const CrfModel& model, uint64_t generation);

  /// Groups of equal model-space input under the bound generation.
  size_t num_groups() const { return group_first_.size(); }
  /// Sentence i's group.
  uint32_t group(size_t i) const {
    return group_of_stored_[stored_of_[i]];
  }

  /// Compiles sentence `i` into `out` (reused — buffers keep their
  /// capacity across calls). Features the bound model does not know are
  /// skipped, exactly like string-based compilation. Labels are not
  /// filled (tagging-side cache).
  void Materialize(size_t i, CompiledSequence* out) const;
  /// Compiles the input every sentence of group `g` shares.
  void MaterializeGroup(size_t g, CompiledSequence* out) const;

 private:
  void MaterializeStored(size_t s, CompiledSequence* out) const;
  /// Hash of stored sentence `s`'s model-space input.
  uint64_t ModelHash(size_t s) const;
  /// True when stored sentences `a` and `b` compile to the same input.
  bool SameModelInput(size_t a, size_t b) const;
  void Regroup();

  FeatureConfig config_;
  FeatureEncoder encoder_;
  util::FlatStringInterner features_;
  /// Sentence i's ids are stored once, as stored sentence
  /// stored_of_[i]; exact repeats point at the first copy.
  std::vector<uint32_t> stored_of_;
  /// Stored sentence s's tokens are [sentence_begin_[s],
  /// sentence_begin_[s+1]) in token space; token j's features are
  /// [token_begin_[j], token_begin_[j+1]) in ids_.
  std::vector<uint32_t> sentence_begin_;
  std::vector<uint32_t> token_begin_;
  std::vector<int32_t> ids_;  // corpus-space feature ids, flattened
  /// Corpus feature id → bound model's feature id (-1 = unknown).
  std::vector<int32_t> remap_;
  /// Stored sentence → its group under the bound generation, and each
  /// group's first stored sentence.
  std::vector<uint32_t> group_of_stored_;
  std::vector<uint32_t> group_first_;
  uint64_t bound_generation_ = UINT64_MAX;
  bool bound_ = false;
};

}  // namespace pae::crf

#endif  // PAE_CRF_COMPILED_CORPUS_H_
