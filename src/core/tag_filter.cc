#include "core/tag_filter.h"

#include <algorithm>

#include "core/normalize.h"
#include "crf/crf_tagger.h"
#include "util/strings.h"

namespace pae::core {

TagFilterTally TagAndFilter(
    const text::SequenceTagger& tagger,
    const std::vector<const text::LabeledSequence*>& sentences,
    const text::NegationDetector* negation, double min_span_confidence,
    crf::CompiledCorpus* compiled, util::ThreadPool* pool,
    std::vector<FilteredSentence>* out) {
  const auto* crf_tagger =
      compiled != nullptr && !sentences.empty()
          ? dynamic_cast<const crf::CrfTagger*>(&tagger)
          : nullptr;
  if (crf_tagger != nullptr) {
    if (!compiled->built()) {
      compiled->Build(sentences, crf_tagger->options().features);
    }
    compiled->Bind(crf_tagger->model(), crf_tagger->Generation());
  }

  out->resize(sentences.size());
  auto tag_one = [&](size_t i) {
    const text::LabeledSequence& sentence = *sentences[i];
    FilteredSentence& result = (*out)[i];
    result.negated =
        negation != nullptr && negation->IsNegated(sentence.tokens);
    result.confidence_dropped = 0;
    result.spans.clear();
    if (result.negated) return;
    text::SequenceTagger::ScoredPrediction scored;
    if (crf_tagger != nullptr) {
      thread_local crf::CompiledSequence compiled_sentence;
      compiled->Materialize(i, &compiled_sentence);
      scored = crf_tagger->PredictScored(compiled_sentence);
    } else {
      scored = tagger.PredictScored(sentence);
    }
    for (text::ValueSpan& span : text::DecodeBioSpans(scored.labels)) {
      if (min_span_confidence > 0) {
        double min_conf = 1.0;
        for (size_t k = span.begin; k < span.end; ++k) {
          min_conf = std::min(min_conf, scored.confidence[k]);
        }
        if (min_conf < min_span_confidence) {
          ++result.confidence_dropped;
          continue;
        }
      }
      result.spans.push_back(std::move(span));
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(0, sentences.size(), 8, tag_one);
  } else {
    for (size_t i = 0; i < sentences.size(); ++i) tag_one(i);
  }

  // Summed serially after the sweep: deterministic and contention-free.
  TagFilterTally tally;
  tally.sentences = static_cast<int64_t>(sentences.size());
  for (const FilteredSentence& result : *out) {
    tally.negation_dropped += result.negated ? 1 : 0;
    tally.confidence_dropped += result.confidence_dropped;
    tally.spans += static_cast<int64_t>(result.spans.size());
  }
  return tally;
}

void ReadSpanValue(const text::LabeledSequence& sentence,
                   const text::ValueSpan& span, text::Language language,
                   SpanValue* out) {
  out->tokens.assign(sentence.tokens.begin() + static_cast<long>(span.begin),
                     sentence.tokens.begin() + static_cast<long>(span.end));
  out->display =
      StrJoin(out->tokens, language == text::Language::kJa ? "" : " ");
  out->key = PairKey(span.attribute, NormalizeValue(out->display));
}

void CandidateTally::Add(const std::string& attribute, const SpanValue& value,
                         const std::string& product_id) {
  auto [it, inserted] = by_key_.emplace(value.key, TaggedCandidate{});
  if (inserted) {
    it->second.attribute = attribute;
    it->second.value_display = value.display;
    it->second.value_tokens = value.tokens;
  }
  if (products_[value.key].insert(product_id).second) {
    it->second.item_count += 1;
  }
}

std::vector<TaggedCandidate> CandidateTally::TakeSorted() {
  std::vector<TaggedCandidate> out;
  out.reserve(by_key_.size());
  for (auto& [key, candidate] : by_key_) out.push_back(std::move(candidate));
  std::sort(out.begin(), out.end(),
            [](const TaggedCandidate& a, const TaggedCandidate& b) {
              if (a.item_count != b.item_count) {
                return a.item_count > b.item_count;
              }
              if (a.attribute != b.attribute) return a.attribute < b.attribute;
              return a.value_display < b.value_display;
            });
  return out;
}

}  // namespace pae::core
