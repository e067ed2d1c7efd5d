#ifndef PAE_CRF_CRF_MODEL_H_
#define PAE_CRF_CRF_MODEL_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/interner.h"
#include "util/status.h"

namespace pae::crf {

/// A training/prediction sequence after feature compilation: per-position
/// active feature ids and (for training) gold label ids.
struct CompiledSequence {
  std::vector<std::vector<int>> features;
  std::vector<int> labels;  // empty when unlabeled

  size_t length() const { return features.size(); }
};

/// One sequence's forward–backward lattice in probability space, with
/// per-position scaling (the recursion CRFsuite trains with). With
/// E_t(y) = exp(s_t(y) − max_y s_t), each row of `alpha` sums to 1 after
/// division by its scale c_t, and `beta` is divided by the same scales,
/// so alpha[t*L+y] * beta[t*L+y] is the marginal p(y_t = y | x).
///
/// Each call resizes the buffers in place, so a lattice reused across
/// calls stops allocating once it has held the longest sequence.
struct ScaledLattice {
  std::vector<double> scores;  // T×L unigram scores s_t(y)
  /// T×L. E_t on the forward pass; the backward pass overwrites rows
  /// t ≥ 1 with q_t = E_t ⊙ beta_t / c_t, which both the backward step
  /// and the transition expectation consume.
  std::vector<double> emit;
  std::vector<double> alpha;  // T×L, rows sum to 1
  std::vector<double> beta;   // T×L
  std::vector<double> scale;  // T, c_t
  /// exp(block − block max) for the transition (L×L, [prev*L + y]),
  /// its transpose ([y*L + prev]), start and end blocks.
  std::vector<double> exp_trans;
  std::vector<double> exp_trans_t;
  std::vector<double> exp_start;
  std::vector<double> exp_end;
  std::vector<double> marginal;  // L, one row of alpha ⊙ beta
};

/// The mathematical core of the linear-chain CRF: label/feature
/// dictionaries, the weight-vector layout, potentials, forward–backward,
/// negative log-likelihood with gradient, marginals, and Viterbi.
///
/// Weight layout (single flat vector, dimension WeightDim()):
///   [0, F*L)             unigram weights, index = feature*L + label
///   [F*L, F*L+L*L)       transition weights, index = prev*L + label
///   [..., ... + L)       start weights (label of first token)
///   [..., ... + L)       end weights (label of last token)
class CrfModel {
 public:
  /// Adds (or finds) a label; returns its id.
  int AddLabel(std::string_view label);
  /// Returns the label id or -1.
  int LookupLabel(std::string_view label) const;
  const std::string& LabelName(int id) const;
  size_t num_labels() const { return labels_.size(); }
  const std::vector<std::string>& labels() const { return labels_; }

  /// Adds (or finds) a feature; returns its id. Ids are dense and
  /// assigned in first-insertion order. Illegal on a model bound to a
  /// packed feature table (the table is read-only mapped memory).
  int AddFeature(std::string_view feature);
  /// Returns the feature id or -1 (unknown features are skipped at
  /// prediction time). Heterogeneous string_view lookup: scratch-buffer
  /// callers never materialize a std::string.
  int LookupFeature(std::string_view feature) const;
  size_t num_features() const {
    return packed_features_.bound() ? packed_features_.size()
                                    : features_.size();
  }
  /// The feature string for `id`; the view stays valid for the model's
  /// lifetime (interner arena storage never moves; a packed table's
  /// arena lives in the caller-owned mapping).
  std::string_view FeatureName(int id) const {
    return packed_features_.bound() ? packed_features_.key(id)
                                    : features_.key(id);
  }

  /// Pre-sizes the dictionaries for bulk builders with a known final
  /// size (Train's min-count survivor remap, Load, Compact), skipping
  /// the incremental rehash storm. Illegal on a packed model — the
  /// table is read-only mapped memory.
  void ReserveFeatures(size_t expected) {
    PAE_CHECK(!packed_features_.bound())
        << "ReserveFeatures on a packed model";
    features_.Reserve(expected);
  }
  void ReserveLabels(size_t expected) {
    labels_.reserve(expected);
    label_ids_.Reserve(expected);
  }

  /// Switches the feature dictionary to a zero-copy packed table (an
  /// mmap'ed model artifact section). The view's probe layout came from
  /// FlatStringInterner::ExportPacked, so LookupFeature returns exactly
  /// the ids the original interner assigned — inference over a packed
  /// model is byte-identical to the trained one. The caller keeps
  /// the backing memory alive (CrfTagger::LoadPacked pins the mapping).
  void BindPackedFeatures(util::StringTableView view) {
    PAE_CHECK(features_.empty())
        << "BindPackedFeatures on a model with interned features";
    packed_features_ = view;
  }
  bool packed_features() const { return packed_features_.bound(); }

  /// Flat export of the feature dictionary for the artifact writer
  /// (core/model_artifact). Requires an interned (non-packed) model.
  void ExportPackedFeatures(std::vector<util::PackedStringSlot>* slots,
                            std::vector<util::PackedStringKey>* keys,
                            std::string* arena) const {
    PAE_CHECK(!packed_features_.bound())
        << "ExportPackedFeatures on a packed model (repack from the "
           "trained tagger instead)";
    features_.ExportPacked(slots, keys, arena);
  }

  /// Total weight dimension for the current dictionaries.
  size_t WeightDim() const;

  // Inference takes the weights as a span so a model can run directly
  // over an mmap'ed weight section (zero-copy artifact) or over an
  // owned std::vector (training) — std::vector converts implicitly.

  /// Computes per-position label scores: scores[t*L + y].
  void UnigramScores(const CompiledSequence& seq, std::span<const double> w,
                     std::vector<double>* scores) const;

  /// Runs the scaled forward–backward over `seq` into `lattice` and
  /// returns log Z. It costs L `exp` and one `log` per position plus
  /// L² + 2L `exp` per sequence, against ~3L² `exp` per position in log
  /// space. Every step is renormalized, so sequence length never
  /// underflows it; what bounds it is the spread (max − min) of the
  /// transition, start and end blocks, which is exponentiated whole:
  /// results stay finite while each spread is well below ~700 nats
  /// (exp(−700) is near the smallest normal double). Trained CRF
  /// weights sit within a few tens of nats.
  double ScaledForwardBackward(const CompiledSequence& seq,
                               std::span<const double> w,
                               ScaledLattice* lattice) const;

  /// Adds the sequence's negative log-likelihood to the return value and
  /// accumulates its gradient into `grad` (same layout as `w`).
  /// Requires gold labels. Runs ScaledForwardBackward on a reusable
  /// thread-local lattice, so it allocates nothing once warm.
  double SequenceNll(const CompiledSequence& seq, std::span<const double> w,
                     std::vector<double>* grad) const;

  /// Posterior marginals p(y_t = y | x): out[t*L + y]. For testing and
  /// confidence estimation. Still runs the log-space ForwardBackward.
  void Marginals(const CompiledSequence& seq, std::span<const double> w,
                 std::vector<double>* out) const;

  /// MAP label sequence via Viterbi.
  std::vector<int> Viterbi(const CompiledSequence& seq,
                           std::span<const double> w) const;

 private:
  /// Runs log-space forward–backward. alpha/beta are T×L, flattened.
  /// Returns log Z. Only Marginals calls it.
  double ForwardBackward(const CompiledSequence& seq,
                         const std::vector<double>& scores,
                         std::span<const double> w,
                         std::vector<double>* alpha,
                         std::vector<double>* beta) const;

  size_t TransBase() const { return num_features() * num_labels(); }
  size_t StartBase() const {
    return TransBase() + num_labels() * num_labels();
  }
  size_t EndBase() const { return StartBase() + num_labels(); }

  std::vector<std::string> labels_;
  util::FlatStringInterner label_ids_;
  util::FlatStringInterner features_;
  /// When bound, replaces features_ for all lookups (zero-copy mode).
  util::StringTableView packed_features_;
};

}  // namespace pae::crf

#endif  // PAE_CRF_CRF_MODEL_H_
