#include "core/apply.h"

#include "core/normalize.h"
#include "core/tag_filter.h"
#include "text/negation.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace pae::core {

std::vector<Triple> ExtractWithModel(const text::SequenceTagger& tagger,
                                     const ProcessedCorpus& corpus,
                                     const ApplyOptions& options) {
  util::MetricsRegistry& metrics = util::MetricsRegistry::Global();
  util::ScopedTimer timer(metrics.GetHistogram("apply.seconds"));
  ApplyStats stats;
  const text::NegationDetector negation(corpus.language);

  struct PendingTriple {
    Triple triple;
    std::string pair_key;
  };
  std::vector<PendingTriple> pending;
  CandidateTally candidates;

  // Tag every sentence on the pool, then merge the kept spans in corpus
  // order so every map fill and dedup decision matches a serial pass
  // byte for byte.
  std::vector<const text::LabeledSequence*> sentences;
  std::vector<size_t> sentence_page;
  for (size_t p = 0; p < corpus.pages.size(); ++p) {
    for (const text::LabeledSequence& sentence : corpus.pages[p].sentences) {
      sentences.push_back(&sentence);
      sentence_page.push_back(p);
    }
  }
  crf::CompiledCorpus crf_cache;
  util::ThreadPool pool(util::ThreadPool::ResolveThreads(options.threads));
  std::vector<FilteredSentence> filtered;
  static_cast<TagFilterTally&>(stats) = TagAndFilter(
      tagger, sentences, options.negation_filtering ? &negation : nullptr,
      options.min_span_confidence, &crf_cache, &pool, &filtered);

  SpanValue value;
  for (size_t i = 0; i < sentences.size(); ++i) {
    const std::string& product_id = corpus.pages[sentence_page[i]].product_id;
    for (const text::ValueSpan& span : filtered[i].spans) {
      ReadSpanValue(*sentences[i], span, corpus.language, &value);
      if (!options.accepted_pairs.empty() &&
          options.accepted_pairs.count(value.key) == 0) {
        continue;
      }
      pending.push_back({Triple{product_id, span.attribute, value.display},
                         value.key});
      candidates.Add(span.attribute, value, product_id);
    }
  }

  // Veto the candidate set, then keep only triples whose pair survived.
  stats.candidates = static_cast<int64_t>(candidates.size());
  std::unordered_set<std::string> surviving;
  if (options.veto_rules) {
    for (const TaggedCandidate& c : ApplyVetoRules(
             candidates.TakeSorted(), options.veto, &stats.cleaning)) {
      surviving.insert(
          PairKey(c.attribute, NormalizeValue(c.value_display)));
    }
    stats.candidates_vetoed =
        stats.candidates - static_cast<int64_t>(surviving.size());
  }

  std::vector<Triple> out;
  std::unordered_set<std::string> seen;
  for (PendingTriple& p : pending) {
    if (options.veto_rules && surviving.count(p.pair_key) == 0) continue;
    const std::string triple_key =
        p.triple.product_id + "\t" + p.pair_key;
    if (!seen.insert(triple_key).second) continue;
    out.push_back(std::move(p.triple));
  }
  stats.triples = static_cast<int64_t>(out.size());

  metrics.GetCounter("apply.sentences")->Add(stats.sentences);
  metrics.GetCounter("apply.negation_dropped")->Add(stats.negation_dropped);
  metrics.GetCounter("apply.spans")->Add(stats.spans);
  metrics.GetCounter("apply.confidence_dropped")
      ->Add(stats.confidence_dropped);
  metrics.GetCounter("apply.candidates")->Add(stats.candidates);
  metrics.GetCounter("apply.candidates_vetoed")->Add(stats.candidates_vetoed);
  metrics.GetCounter("apply.triples")->Add(stats.triples);
  RecordCleaningMetrics(stats.cleaning);
  const double elapsed = timer.Stop();
  if (elapsed > 0) {
    metrics.GetGauge("apply.sentences_per_second")
        ->Set(static_cast<double>(stats.sentences) / elapsed);
  }
  if (options.stats != nullptr) *options.stats = stats;
  return out;
}

}  // namespace pae::core
