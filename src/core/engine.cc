#include "core/engine.h"

#include <atomic>
#include <fstream>

#include "core/corpus_io.h"
#include "core/model_artifact.h"
#include "util/logging.h"

namespace pae::core {

std::vector<double> RequestLatencyBounds() {
  std::vector<double> bounds;
  for (double decade = 1e-5; decade < 10.0; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(2 * decade);
    bounds.push_back(5 * decade);
  }
  bounds.push_back(10.0);
  return bounds;
}

namespace {

/// Live Scratch count backing the engine.scratch_live gauge. A gauge is
/// last-write-wins, so the atomic holds the truth and every
/// create/destroy republishes it.
std::atomic<int64_t> g_live_scratches{0};

void PublishScratchGauge() {
  util::MetricsRegistry::Global()
      .GetGauge("engine.scratch_live")
      ->Set(static_cast<double>(
          g_live_scratches.load(std::memory_order_relaxed)));
}

}  // namespace

ExtractionEngine::Scratch::Scratch() {
  util::MetricsRegistry::Global()
      .GetCounter("engine.scratch_created")
      ->Increment();
  g_live_scratches.fetch_add(1, std::memory_order_relaxed);
  PublishScratchGauge();
}

ExtractionEngine::Scratch::~Scratch() {
  g_live_scratches.fetch_sub(1, std::memory_order_relaxed);
  PublishScratchGauge();
}

std::unique_ptr<ExtractionEngine::Scratch> ExtractionEngine::NewScratch() {
  return std::unique_ptr<Scratch>(new Scratch());
}

ExtractionEngine::ExtractionEngine(
    std::shared_ptr<const text::SequenceTagger> tagger,
    text::Language language,
    const std::vector<std::string>& tokenizer_lexicon,
    const text::PosLexicon& pos_lexicon, EngineOptions options)
    : tagger_(std::move(tagger)),
      language_(language),
      pos_lexicon_(pos_lexicon),
      segmenter_(language, tokenizer_lexicon, pos_lexicon_),
      negation_(language),
      options_(std::move(options)) {
  PAE_CHECK(tagger_ != nullptr);
  util::MetricsRegistry& metrics = util::MetricsRegistry::Global();
  metrics.GetCounter("engine.snapshots_built")->Increment();
  requests_counter_ = metrics.GetCounter("engine.requests");
  triples_counter_ = metrics.GetCounter("engine.request_triples");
  latency_histogram_ =
      metrics.GetHistogram("engine.request.seconds", RequestLatencyBounds());
}

ExtractionEngine::~ExtractionEngine() = default;

std::vector<Triple> ExtractionEngine::Extract(
    std::string_view product_id, std::string_view html, Scratch* scratch,
    EngineRequestStats* stats) const {
  util::ScopedTimer timer(latency_histogram_);
  std::unique_ptr<Scratch> owned;
  if (scratch == nullptr) {
    owned = NewScratch();
    scratch = owned.get();
  }

  // Front end: one streaming scan of the page, then fused sentence
  // split + tokenize + PoS tag into reused buffers. The memo is reset
  // first so no state crosses requests (or engine generations).
  scratch->scanner_.Scan(html);
  scratch->segment_.cache = {};
  scratch->sentences_.clear();
  segmenter_.Segment(scratch->scanner_.text(), &scratch->sentences_,
                     &scratch->segment_);
  scratch->sentence_ptrs_.clear();
  for (const text::LabeledSequence& sentence : scratch->sentences_) {
    scratch->sentence_ptrs_.push_back(&sentence);
  }

  // Tag → filter (the core ExtractWithModel runs), then the catalog
  // filter and per-page dedup, in ExtractWithModel's visiting order.
  EngineRequestStats local;
  static_cast<TagFilterTally&>(local) = TagAndFilter(
      *tagger_, scratch->sentence_ptrs_,
      options_.negation_filtering ? &negation_ : nullptr,
      options_.min_span_confidence, nullptr, nullptr, &scratch->filtered_);
  std::vector<Triple> out;
  scratch->seen_.clear();
  SpanValue& value = scratch->value_;
  for (size_t i = 0; i < scratch->sentences_.size(); ++i) {
    for (const text::ValueSpan& span : scratch->filtered_[i].spans) {
      ReadSpanValue(scratch->sentences_[i], span, language_, &value);
      if ((!options_.accepted_pairs.empty() &&
           options_.accepted_pairs.count(value.key) == 0) ||
          !scratch->seen_.insert(value.key).second) {
        continue;
      }
      out.push_back(
          Triple{std::string(product_id), span.attribute, value.display});
    }
  }
  local.triples = static_cast<int64_t>(out.size());

  requests_counter_->Increment();
  triples_counter_->Add(local.triples);
  if (stats != nullptr) *stats = local;
  return out;
}

Status SaveCrfModel(const crf::CrfTagger& tagger,
                    const std::vector<std::string>& accepted_pair_keys,
                    const std::string& model_path) {
  std::string pairs;
  for (const std::string& key : accepted_pair_keys) {
    pairs += key;
    pairs += '\n';
  }
  PAE_RETURN_IF_ERROR(PublishFile(pairs, model_path + ".pairs"));
  return PackModelArtifact(tagger, model_path);
}

Result<LoadedCrfModel> LoadCrfModel(const std::string& model_path) {
  // Zero-copy: map the artifact and bind views in place. The only
  // model-sized bytes this publishes are shared file pages, which the
  // model.load.bytes_copied counter proves (labels only).
  Result<std::shared_ptr<const ModelArtifact>> artifact =
      ModelArtifact::Open(model_path);
  if (!artifact.ok()) return artifact.status();
  Result<crf::PackedCrfModel> packed =
      MakePackedCrfModel(std::move(artifact).value());
  if (!packed.ok()) return packed.status();
  LoadedCrfModel loaded;
  loaded.tagger = std::make_shared<crf::CrfTagger>();
  PAE_RETURN_IF_ERROR(loaded.tagger->LoadPacked(std::move(packed).value()));
  std::ifstream pairs(model_path + ".pairs");
  if (!pairs) {
    PAE_LOG(WARNING) << model_path << ".pairs is missing: the model "
                     << "loads without its accepted-pairs whitelist";
    util::MetricsRegistry::Global()
        .GetCounter("model.load.pairs_missing")
        ->Increment();
  }
  for (std::string line; std::getline(pairs, line);) {
    if (!line.empty()) loaded.accepted_pairs.insert(line);
  }
  return loaded;
}

Result<std::shared_ptr<const ExtractionEngine>> LoadCrfEngine(
    const std::string& model_path, const std::string& resources_dir,
    EngineOptions options, bool load_accepted_pairs) {
  Result<LoadedCrfModel> model = LoadCrfModel(model_path);
  if (!model.ok()) return model.status();
  Result<CorpusResources> resources = LoadCorpusResources(resources_dir);
  if (!resources.ok()) return resources.status();
  if (load_accepted_pairs && options.accepted_pairs.empty()) {
    options.accepted_pairs = std::move(model.value().accepted_pairs);
  }
  return std::shared_ptr<const ExtractionEngine>(
      std::make_shared<ExtractionEngine>(
          std::move(model.value().tagger), resources.value().language,
          resources.value().tokenizer_lexicon,
          resources.value().pos_lexicon, std::move(options)));
}

}  // namespace pae::core
