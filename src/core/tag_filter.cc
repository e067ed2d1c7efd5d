#include "core/tag_filter.h"

#include <algorithm>
#include <functional>

#include "core/normalize.h"
#include "crf/crf_tagger.h"
#include "util/strings.h"

namespace pae::core {

namespace {

/// Steps 3–4 for one scored prediction: decode its BIO spans, then keep
/// those whose minimum token confidence clears the bar.
void FilterSpans(const text::SequenceTagger::ScoredPrediction& scored,
                 double min_span_confidence, FilteredSentence* result) {
  for (text::ValueSpan& span : text::DecodeBioSpans(scored.labels)) {
    if (min_span_confidence > 0) {
      double min_conf = 1.0;
      for (size_t k = span.begin; k < span.end; ++k) {
        min_conf = std::min(min_conf, scored.confidence[k]);
      }
      if (min_conf < min_span_confidence) {
        ++result->confidence_dropped;
        continue;
      }
    }
    result->spans.push_back(std::move(span));
  }
}

}  // namespace

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
  auto parallel_for = [pool](size_t n, const std::function<void(size_t)>& fn) {
    if (pool != nullptr) {
      pool->ParallelFor(0, n, 8, fn);
    } else {
      for (size_t i = 0; i < n; ++i) fn(i);
    }
  };

  out->resize(sentences.size());
  TagFilterTally tally;
  if (crf_tagger == nullptr) {
    parallel_for(sentences.size(), [&](size_t i) {
      const text::LabeledSequence& sentence = *sentences[i];
      FilteredSentence& result = (*out)[i];
      result.negated =
          negation != nullptr && negation->IsNegated(sentence.tokens);
      result.confidence_dropped = 0;
      result.spans.clear();
      if (result.negated) return;
      FilterSpans(tagger.PredictScored(sentence), min_span_confidence,
                  &result);
    });
  } else {
    // Negation reads each sentence's own tokens: group members can
    // differ in tokens the model never saw, cue words included.
    parallel_for(sentences.size(), [&](size_t i) {
      FilteredSentence& result = (*out)[i];
      result.negated =
          negation != nullptr && negation->IsNegated(sentences[i]->tokens);
      result.confidence_dropped = 0;
      result.spans.clear();
    });
    // Score each group that has a member left, once.
    std::vector<uint8_t> wanted(compiled->num_groups(), 0);
    std::vector<uint32_t> to_score;
    for (size_t i = 0; i < sentences.size(); ++i) {
      const uint32_t g = compiled->group(i);
      if (!(*out)[i].negated && wanted[g] == 0) {
        wanted[g] = 1;
        to_score.push_back(g);
      }
    }
    std::vector<FilteredSentence> by_group(compiled->num_groups());
    parallel_for(to_score.size(), [&](size_t k) {
      thread_local crf::CompiledSequence compiled_sentence;
      compiled->MaterializeGroup(to_score[k], &compiled_sentence);
      FilterSpans(crf_tagger->PredictScored(compiled_sentence),
                  min_span_confidence, &by_group[to_score[k]]);
    });
    parallel_for(sentences.size(), [&](size_t i) {
      FilteredSentence& result = (*out)[i];
      if (result.negated) return;
      const FilteredSentence& scored = by_group[compiled->group(i)];
      result.confidence_dropped = scored.confidence_dropped;
      result.spans = scored.spans;
    });
    tally.tagged = static_cast<int64_t>(to_score.size());
  }

  // Summed serially after the sweep: deterministic and contention-free.
  tally.sentences = static_cast<int64_t>(sentences.size());
  for (const FilteredSentence& result : *out) {
    tally.negation_dropped += result.negated ? 1 : 0;
    tally.confidence_dropped += result.confidence_dropped;
    tally.spans += static_cast<int64_t>(result.spans.size());
  }
  if (crf_tagger == nullptr) {
    tally.tagged = tally.sentences - tally.negation_dropped;
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
