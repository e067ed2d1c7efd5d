#ifndef PAE_CRF_CRF_TAGGER_H_
#define PAE_CRF_CRF_TAGGER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "crf/crf_model.h"
#include "crf/feature_extractor.h"
#include "crf/owlqn.h"
#include "text/sequence_tagger.h"

namespace pae::crf {

/// Training configuration. Defaults follow the paper's setup (§VI-D):
/// CRFsuite's default trainer, L-BFGS with L1+L2 regularization
/// (OWL-QN), over the standard CRFsuite-style feature template with
/// every training feature kept.
struct CrfOptions {
  FeatureConfig features;
  double c1 = 0.05;         // L1 coefficient
  double c2 = 1.0;          // L2 coefficient
  int max_iterations = 60;  // OWL-QN iterations
  double epsilon = 1e-3;
  /// Threads for the per-sequence NLL/gradient accumulation (0 = all
  /// hardware threads, negative clamps to 1). The gradient reduction is
  /// sharded by a fixed decomposition of the training set, so trained
  /// weights are bit-identical for every thread count.
  int threads = 1;
};

/// A CRF model described by views into externally owned memory —
/// typically sections of an mmap'ed `.paez` artifact (built by
/// core/model_artifact). Labels are the one copied piece (a handful of
/// short strings); the feature table and the weight vector are used in
/// place. `owner` pins whatever backs the views (the file mapping) for
/// the tagger's lifetime.
struct PackedCrfModel {
  int32_t window = 0;
  int32_t max_sentence_bucket = 0;
  double c1 = 0;
  double c2 = 0;
  std::vector<std::string> labels;
  util::StringTableView features;
  std::span<const double> weights;
  std::shared_ptr<const void> owner;
};

/// Linear-chain CRF sequence tagger (the paper's primary model family).
class CrfTagger : public text::SequenceTagger {
 public:
  explicit CrfTagger(CrfOptions options = {});

  /// Trains from zero weights.
  Status Train(const std::vector<text::LabeledSequence>& data) override;
  /// Trains from `start`'s weights instead of zero, for a retraining
  /// whose data changed only a little (the bootstrap's cycles). After the
  /// dictionaries are built from `data`, the start weights are copied
  /// into the new layout by name: unigram weights by (feature string,
  /// label name), the transition, start and end blocks by label names.
  /// Features and labels `start` lacks start at 0, and the rest of
  /// training is unchanged. The start point is a pure function of
  /// `start`, so the result is as deterministic as a cold Train. `start`
  /// may be packed or untrained (an untrained one is the zero start),
  /// but must not be this tagger.
  Status Train(const std::vector<text::LabeledSequence>& data,
               const CrfTagger& start);
  std::vector<std::string> Predict(
      const text::LabeledSequence& seq) const override;
  /// Viterbi labels with forward-backward marginal confidences.
  ScoredPrediction PredictScored(
      const text::LabeledSequence& seq) const override;
  /// Same, over an already-compiled sequence — the `CompiledCorpus`
  /// fast path: extraction and feature-id lookup were done by the cache,
  /// so this runs inference only. Produces byte-identical output to the
  /// string overload for an identically compiled sequence.
  ScoredPrediction PredictScored(const CompiledSequence& compiled) const;
  std::string Name() const override { return "crf"; }

  /// A stamp renewed whenever the model or weights change (a successful
  /// Train or LoadPacked), unique across every tagger in the process:
  /// compiled-sequence caches key their feature-id remaps on it, and the
  /// bootstrap tags each cycle with a fresh tagger through one cache.
  uint64_t Generation() const { return generation_; }

  /// Binds the tagger to a packed model without copying: the feature
  /// table and weights stay in `packed.owner`'s memory (an mmap'ed
  /// artifact), so "loading" costs label strings only. Predictions are
  /// byte-identical to the trained tagger the artifact was packed from.
  Status LoadPacked(PackedCrfModel packed);
  /// True when backed by a packed artifact.
  bool packed() const { return packed_; }

  /// Introspection for tests and diagnostics.
  const CrfOptions& options() const { return options_; }
  const CrfModel& model() const { return model_; }
  /// The owned weight vector — empty on a packed tagger; prefer
  /// weights_span() which is valid in both modes.
  const std::vector<double>& weights() const { return weights_; }
  /// The weights inference runs over: the owned vector after Train,
  /// the mapped section after LoadPacked.
  std::span<const double> weights_span() const { return weights_span_; }
  const OwlqnReport& training_report() const { return report_; }
  bool trained() const { return trained_; }

 private:
  Status TrainFrom(const std::vector<text::LabeledSequence>& data,
                   const CrfTagger* start);
  CompiledSequence Compile(const text::LabeledSequence& seq,
                           bool with_labels) const;
  /// Shared Viterbi + marginals path behind both PredictScored
  /// overloads.
  ScoredPrediction ScoreCompiled(const CompiledSequence& compiled) const;

  CrfOptions options_;
  CrfModel model_;
  std::vector<double> weights_;
  /// What inference actually reads; re-pointed whenever weights_ is
  /// rebuilt, or aimed at the mapped section by LoadPacked.
  std::span<const double> weights_span_;
  /// Pins the mapping backing weights_span_/packed features.
  std::shared_ptr<const void> packed_owner_;
  OwlqnReport report_;
  bool trained_ = false;
  bool packed_ = false;
  uint64_t generation_ = 0;
};

}  // namespace pae::crf

#endif  // PAE_CRF_CRF_TAGGER_H_
