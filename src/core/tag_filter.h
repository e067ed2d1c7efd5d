#ifndef PAE_CORE_TAG_FILTER_H_
#define PAE_CORE_TAG_FILTER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/cleaning.h"
#include "crf/compiled_corpus.h"
#include "text/labeled_sequence.h"
#include "text/negation.h"
#include "text/sequence_tagger.h"
#include "text/tokenizer.h"
#include "util/thread_pool.h"

namespace pae::core {

/// One sentence after the tag → filter step.
struct FilteredSentence {
  bool negated = false;            ///< dropped whole by the negation check
  int64_t confidence_dropped = 0;  ///< spans below the confidence bar
  std::vector<text::ValueSpan> spans;  ///< kept spans, in token order
};

/// Drop tallies of one TagAndFilter call; the engine's and batch
/// apply's request statistics extend it.
struct TagFilterTally {
  int64_t sentences = 0;
  int64_t negation_dropped = 0;
  int64_t confidence_dropped = 0;
  int64_t spans = 0;  ///< spans kept after the confidence bar
};

/// The §VI tag → filter step, the one copy that serving
/// (ExtractionEngine::Extract), batch apply (ExtractWithModel) and the
/// bootstrap's tag step share. For each sentence:
///   1. skip it when `negation` is non-null and flags it (Def. 3.1);
///   2. PredictScored;
///   3. DecodeBioSpans;
///   4. when `min_span_confidence` > 0, drop every span whose minimum
///      token confidence is below it.
/// `(*out)[i]` receives sentence i's outcome. Sentences are independent,
/// so `pool` (null = serial) may run them in any order and the output
/// is the same.
///
/// CRF fast path: when `compiled` is non-null and `tagger` is a
/// crf::CrfTagger, every sentence's features are extracted once into
/// `compiled` (on the first call — later calls must pass the same
/// sentence list) and each call only rebinds feature ids to the
/// tagger's generation. Predictions are identical either way.
TagFilterTally TagAndFilter(
    const text::SequenceTagger& tagger,
    const std::vector<const text::LabeledSequence*>& sentences,
    const text::NegationDetector* negation, double min_span_confidence,
    crf::CompiledCorpus* compiled, util::ThreadPool* pool,
    std::vector<FilteredSentence>* out);

/// A kept span's surface value.
struct SpanValue {
  std::vector<std::string> tokens;
  /// Tokens joined without a separator for Japanese, with single spaces
  /// otherwise.
  std::string display;
  /// PairKey(attribute, NormalizeValue(display)).
  std::string key;
};

/// Fills `out` (buffers reused) with `span`'s value in `sentence`.
void ReadSpanValue(const text::LabeledSequence& sentence,
                   const text::ValueSpan& span, text::Language language,
                   SpanValue* out);

/// The distinct <attribute, value> candidates of a tagging pass, each
/// with its support: the number of distinct products tagged with it.
class CandidateTally {
 public:
  void Add(const std::string& attribute, const SpanValue& value,
           const std::string& product_id);
  size_t size() const { return by_key_.size(); }
  /// Moves the candidates out (call once), by support (highest first),
  /// then attribute, then display value — a total order, because equal
  /// attribute and display imply equal keys.
  std::vector<TaggedCandidate> TakeSorted();

 private:
  std::unordered_map<std::string, TaggedCandidate> by_key_;
  std::unordered_map<std::string, std::unordered_set<std::string>>
      products_;
};

}  // namespace pae::core

#endif  // PAE_CORE_TAG_FILTER_H_
