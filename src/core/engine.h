#ifndef PAE_CORE_ENGINE_H_
#define PAE_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/tag_filter.h"
#include "core/types.h"
#include "crf/crf_tagger.h"
#include "html/stream_scanner.h"
#include "text/fused_segmenter.h"
#include "text/labeled_sequence.h"
#include "text/negation.h"
#include "text/pos_tagger.h"
#include "text/sequence_tagger.h"
#include "util/metrics.h"
#include "util/status.h"

namespace pae::core {

/// Per-page extraction knobs, which ApplyOptions extends with the
/// corpus-level ones: the veto rules are corpus-level statistics (item
/// counts across products) and are therefore a bootstrap-time concern —
/// a serving engine runs in the "known catalog values" deployment mode
/// (accepted_pairs) the paper describes for production, or unfiltered.
struct EngineOptions {
  /// Drop spans whose minimum posterior confidence is below this.
  double min_span_confidence = 0.0;
  /// Drop spans in negated sentences (Definition 3.1).
  bool negation_filtering = true;
  /// When non-empty, only <attribute, value> pairs present in this set
  /// are emitted (keys via PairKey(attribute, NormalizeValue(value))).
  std::unordered_set<std::string> accepted_pairs;
};

/// Bucket bounds for per-request latencies: 10 µs .. 10 s in a 1-2-5
/// progression. The pipeline-stage default (100 µs .. 300 s) is too
/// coarse for a request that usually finishes under a millisecond.
/// Shared by the engine's own timer, the serve-side request timer and
/// the daemon's model-load timer so their buckets line up.
std::vector<double> RequestLatencyBounds();

/// Telemetry for one ExtractionEngine::Extract call.
struct EngineRequestStats : TagFilterTally {
  int64_t triples = 0;
};

/// An immutable extraction snapshot: one trained SequenceTagger plus the
/// language resources (segmenter lexicons, negation cues) and request
/// options needed to turn a raw product page into triples.
///
/// Engines are the unit of model hot-swap in pae-serve: a new model is
/// loaded into a fresh engine and published behind the generation
/// pointer while in-flight requests keep using the old one. Everything
/// model-sized — the tagger's weights and feature dictionary, the
/// segmenter's lexicon, the PoS dictionary — is allocated exactly once,
/// at construction; `Extract` is const, thread-safe, and performs only
/// request-sized work against per-worker `Scratch` buffers (the CRF's
/// feature-encoding scratch is thread-local inside CrfTagger, so each
/// server worker reuses one encoder across every request it serves).
///
/// A request runs the ingestion front end — html::StreamScanner, then
/// text::FusedSegmenter — and then the shared tag → filter core
/// (core/tag_filter.h). The segmenter's sentence memo lives in the
/// Scratch and is reset at the start of every request, so no request
/// can observe another's pages and a Scratch's memory stays bounded by
/// one page.
///
/// Byte-equality contract: for the same model generation and the same
/// options, `Extract(product_id, html)` returns exactly the triples
/// ExtractWithModel(tagger, IngestCorpus(one-page corpus).corpus,
/// options with veto_rules=false) returns. tests/serve_test.cc holds the
/// two paths together, and also holds Extract equal to the DOM reference
/// front end (ParseHtml → ExtractText → SplitSentences → Tokenize → Tag)
/// on randomized tag soup.
class ExtractionEngine {
 public:
  /// Builds a snapshot. `tagger` must already be trained; the lexicons
  /// are copied into engine-owned resources. Construction is the only
  /// model-sized allocation in an engine's lifetime (tracked by the
  /// `engine.snapshots_built` counter).
  ExtractionEngine(std::shared_ptr<const text::SequenceTagger> tagger,
                   text::Language language,
                   const std::vector<std::string>& tokenizer_lexicon,
                   const text::PosLexicon& pos_lexicon,
                   EngineOptions options);
  ~ExtractionEngine();

  ExtractionEngine(const ExtractionEngine&) = delete;
  ExtractionEngine& operator=(const ExtractionEngine&) = delete;

  /// Reusable per-worker request buffers. A worker allocates one Scratch
  /// up front (counted by `engine.scratch_created` / the
  /// `engine.scratch_live` gauge) and reuses it for every request:
  /// steady-state request handling allocates nothing model-sized, which
  /// ExtractionEngineTest.ScratchReuseAllocatesNoNewScratches asserts
  /// by watching `engine.scratch_created` stay flat. A Scratch must not
  /// be shared between concurrent requests; it may be handed to a
  /// different engine generation after a hot-swap.
  class Scratch {
   public:
    ~Scratch();

   private:
    friend class ExtractionEngine;
    Scratch();

    html::StreamScanner scanner_;
    text::FusedSegmenter::Scratch segment_;
    std::vector<text::LabeledSequence> sentences_;
    std::vector<const text::LabeledSequence*> sentence_ptrs_;
    std::vector<FilteredSentence> filtered_;
    SpanValue value_;
    std::unordered_set<std::string> seen_;
  };

  static std::unique_ptr<Scratch> NewScratch();

  /// Extracts the triples of one raw product page. `scratch` may be
  /// null (a temporary is used — convenient in tests, allocation-heavy
  /// in servers). `stats` is overwritten when non-null.
  std::vector<Triple> Extract(std::string_view product_id,
                              std::string_view html, Scratch* scratch,
                              EngineRequestStats* stats = nullptr) const;

  const text::SequenceTagger& tagger() const { return *tagger_; }
  text::Language language() const { return language_; }
  const EngineOptions& options() const { return options_; }
  /// The tagger's short name ("crf", "bilstm", ...).
  std::string ModelName() const { return tagger_->Name(); }

 private:
  std::shared_ptr<const text::SequenceTagger> tagger_;
  text::Language language_;
  /// Owned copy: segmenter_ reads it per token (declared first so it
  /// outlives the segmenter).
  text::PosLexicon pos_lexicon_;
  text::FusedSegmenter segmenter_;
  text::NegationDetector negation_;
  EngineOptions options_;
  /// Hot-path metric handles resolved once (registry pointers are
  /// stable), so Extract never takes the registry lock.
  util::Counter* requests_counter_;
  util::Counter* triples_counter_;
  util::Histogram* latency_histogram_;
};

/// A persisted CRF model as the loaders read it.
struct LoadedCrfModel {
  std::shared_ptr<crf::CrfTagger> tagger;
  /// `model_path + ".pairs"` — the known catalog values saved next to
  /// the model — or empty when that file is absent.
  std::unordered_set<std::string> accepted_pairs;
};

/// Saves a trained CRF tagger as LoadCrfModel reads it: first the
/// `model_path + ".pairs"` sidecar (one accepted pair key per line),
/// then the `.paez` artifact (PackModelArtifact), each through
/// PublishFile. A sidecar that cannot be written fails the save before
/// the artifact is touched, so a saved model never lacks its whitelist.
Status SaveCrfModel(const crf::CrfTagger& tagger,
                    const std::vector<std::string>& accepted_pair_keys,
                    const std::string& model_path);

/// Reads a `.paez` CRF model artifact (PackModelArtifact). The file is
/// mmap'ed and used in place — microsecond loads, pages shared across
/// processes — and predicts byte-identically to the tagger it was
/// packed from. A missing `.pairs` sidecar loads as an empty whitelist
/// (every tagged pair passes); it is logged as a warning and counted in
/// `model.load.pairs_missing`.
Result<LoadedCrfModel> LoadCrfModel(const std::string& model_path);

/// Loads a persisted CRF model (LoadCrfModel) plus the corpus language
/// resources under `resources_dir` (manifest.tsv / lexicon.txt /
/// pos_lexicon.tsv, the SaveCorpus layout) into a fresh engine. When
/// `load_accepted_pairs` is true and options.accepted_pairs is empty,
/// the model's `.pairs` file fills it.
Result<std::shared_ptr<const ExtractionEngine>> LoadCrfEngine(
    const std::string& model_path, const std::string& resources_dir,
    EngineOptions options, bool load_accepted_pairs = true);

}  // namespace pae::core

#endif  // PAE_CORE_ENGINE_H_
