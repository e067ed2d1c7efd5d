#ifndef PAE_CORE_BOOTSTRAP_H_
#define PAE_CORE_BOOTSTRAP_H_

#include <memory>
#include <string>
#include <vector>

#include "core/cleaning.h"
#include "core/document.h"
#include "core/eval.h"
#include "core/ingest.h"
#include "core/preprocess.h"
#include "core/types.h"
#include "crf/crf_tagger.h"
#include "lstm/bilstm_tagger.h"
#include "util/status.h"

namespace pae::core {

/// The two model families of §VI-D plus their combinations (the
/// paper's §IX future work: "combining different approaches").
enum class ModelType {
  kCrf,
  kBiLstm,
  kEnsembleIntersection,  // CRF ∩ BiLSTM: precision-first
  kEnsembleUnion,         // CRF ∪ BiLSTM: coverage-first
};

const char* ModelTypeName(ModelType type);

/// Full configuration of one pipeline run. The boolean switches map to
/// the ablation rows of Table IV: `syntactic_cleaning` ("synt"),
/// `semantic_cleaning` ("sem"), `preprocess.enable_diversification`
/// ("div").
struct PipelineConfig {
  ModelType model = ModelType::kCrf;
  /// Bootstrap stopping criterion: number of Tagger–Cleaner cycles
  /// (§V: 5 in all experiments).
  int iterations = 5;
  bool syntactic_cleaning = true;
  bool semantic_cleaning = true;
  /// Definition 3.1: value mentions inside negated sentences ("does not
  /// include ...") must not produce triples. Drops spans found in
  /// sentences the NegationDetector flags.
  bool negation_filtering = true;

  PreprocessConfig preprocess;
  VetoConfig veto;
  SemanticCleaner::Config semantic;
  crf::CrfOptions crf;
  lstm::BiLstmOptions lstm;

  /// Minimum model confidence (posterior of the emitted labels,
  /// minimum over the span) for a tagged span to become a candidate.
  /// 0 keeps everything; raising it trades coverage for precision —
  /// the business dial of §II.
  double min_span_confidence = 0.0;

  /// Train one additional tagger on the final dataset after the last
  /// cycle and expose it in PipelineResult::final_tagger for
  /// persistence / the apply phase (core/apply.h).
  bool train_final_model = false;

  /// Training-set cap per iteration (uniform sample) to bound cost.
  size_t max_train_sentences = 4000;
  uint64_t seed = 99;

  /// Worker threads for the hot paths (CRF gradient accumulation,
  /// sentence tagging, distant-supervision labeling). 0 = all hardware
  /// threads; negative values are rejected by Pipeline::Run with an
  /// InvalidArgument Status. Results are bit-identical for every thread
  /// count — parallel work is either index-sharded with an ordered merge
  /// or embarrassingly parallel with order-preserving collection.
  int threads = 0;
};

/// Telemetry of one Tagger–Cleaner cycle.
struct IterationStats {
  int iteration = 0;
  size_t labeled_sentences = 0;   // training-set size for this cycle
  size_t candidate_values = 0;    // distinct values the tagger proposed
  size_t accepted_values = 0;     // after cleaning
  size_t new_triples = 0;
  size_t cumulative_triples = 0;
  CleaningStats cleaning;
};

/// The output of a full run: the seed, the triples after the seed stage,
/// and the cumulative triples after every iteration (for the
/// across-iteration figures).
struct PipelineResult {
  Seed seed;
  std::vector<Triple> seed_triples;
  std::vector<IterationStats> iteration_stats;
  /// triples_after[i] = cumulative triples after iteration i+1.
  std::vector<std::vector<Triple>> triples_after;

  /// Deployable tagger trained on the final dataset (only when
  /// PipelineConfig::train_final_model is set).
  std::shared_ptr<text::SequenceTagger> final_tagger;
  /// PairKey(attribute, normalized value) of every value the bootstrap
  /// accepted — the "known catalog values" set for the apply phase.
  std::vector<std::string> known_pair_keys;

  const std::vector<Triple>& final_triples() const {
    return triples_after.empty() ? seed_triples : triples_after.back();
  }
};

/// End-to-end bootstrapping extractor (Fig. 1 / Fig. 2): seed → (tag →
/// clean → extend)* for `iterations` cycles.
class Pipeline {
 public:
  explicit Pipeline(PipelineConfig config);

  /// Runs the full algorithm on a preprocessed corpus.
  Result<PipelineResult> Run(const ProcessedCorpus& corpus);

  /// Runs on a streaming-ingested corpus: the candidate set harvested
  /// during the parse pass feeds seed construction directly, skipping
  /// the DiscoverCandidates re-walk. Byte-identical results to
  /// Run(ingested.corpus) — the harvest reproduces DiscoverCandidates
  /// exactly (see core/ingest.h).
  Result<PipelineResult> Run(const IngestedCorpus& ingested);

 private:
  Result<PipelineResult> RunImpl(const ProcessedCorpus& corpus,
                                 const CandidateSet* candidates);

  std::unique_ptr<text::SequenceTagger> MakeTagger(int iteration) const;

  PipelineConfig config_;
};

}  // namespace pae::core

#endif  // PAE_CORE_BOOTSTRAP_H_
