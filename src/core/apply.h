#ifndef PAE_CORE_APPLY_H_
#define PAE_CORE_APPLY_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "core/cleaning.h"
#include "core/document.h"
#include "core/engine.h"
#include "core/tag_filter.h"
#include "core/types.h"
#include "text/sequence_tagger.h"

namespace pae::core {

/// Counters describing one ExtractWithModel pass. Filled when
/// ApplyOptions::stats is set; the same numbers also feed the global
/// metrics registry under `apply.*` / `cleaning.*`.
struct ApplyStats : TagFilterTally {
  int64_t candidates = 0;          ///< distinct <attribute, value> pairs
  int64_t candidates_vetoed = 0;   ///< pairs removed by the veto rules
  int64_t triples = 0;             ///< triples emitted
  CleaningStats cleaning;          ///< per-rule veto breakdown
};

/// Inference-time extraction: applies an already-trained tagger to a
/// (possibly new) corpus without running the bootstrap. This is the
/// production "apply" phase — the bootstrap trains and calibrates on a
/// reference crawl; fresh merchant pages are then tagged with the
/// persisted model.
///
/// The per-page knobs are the engine's (min_span_confidence,
/// negation_filtering, accepted_pairs); the rest are corpus-level.
struct ApplyOptions : EngineOptions {
  /// Apply the four §V-C veto rules to the extracted candidates.
  bool veto_rules = true;
  VetoConfig veto;
  /// Threads for per-sentence tagging (0 = all hardware threads,
  /// negative clamps to 1). Output is byte-identical for every thread
  /// count: predictions are collected per sentence slot and merged in
  /// corpus order.
  int threads = 0;
  /// When non-null, receives the pass's telemetry (overwritten, not
  /// accumulated). Purely observational: never affects the output.
  ApplyStats* stats = nullptr;
};

/// Tags every sentence of every page and returns the surviving triples:
/// the shared tag → filter core (core/tag_filter.h) over all sentences,
/// then the catalog filter (accepted_pairs), the corpus-level veto and
/// a per-(product, pair) dedup, in corpus order. With veto_rules=false
/// and distinct product ids the output equals ExtractionEngine::Extract
/// over the pages in order (core/engine.h), for the same tagger and
/// resources.
std::vector<Triple> ExtractWithModel(const text::SequenceTagger& tagger,
                                     const ProcessedCorpus& corpus,
                                     const ApplyOptions& options);

}  // namespace pae::core

#endif  // PAE_CORE_APPLY_H_
