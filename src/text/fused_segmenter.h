#ifndef PAE_TEXT_FUSED_SEGMENTER_H_
#define PAE_TEXT_FUSED_SEGMENTER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "text/char_class.h"
#include "text/labeled_sequence.h"
#include "text/pos_tagger.h"
#include "text/tokenizer.h"

namespace pae::text {

/// Fused sentence-split + tokenize + PoS-tag with per-sentence
/// memoization.
///
/// The modular pipeline (SplitSentences -> Tokenizer::Tokenize ->
/// PosTagger::Tag) decodes the same text three times and materializes a
/// string per sentence that is thrown away immediately. This class walks
/// the page bytes once to find sentence boundaries, looks each trimmed
/// sentence up in a per-thread memo by its raw bytes, and only on a miss
/// decodes that one sentence and runs the exact token / tag state
/// machines over it. Product pages are heavily templated, so most
/// sentences recur corpus-wide and the common case is a memo hit that
/// copies byte-identical results. It is the text half of the streaming
/// ingestion hot path (core/ingest.h) and of the serving engine
/// (core/engine.h), which resets the memo per request.
///
/// Equivalence contract, enforced by tests/stream_scanner_test.cc with
/// randomized differentials: Segment(text) produces exactly the
/// LabeledSequences that the reference loop (tests/support/oracle.h)
///   for s in SplitSentences(text): tokens = Tokenize(s);
///     if empty continue; pos = Tag(tokens); sentence_index++
/// produces, byte for byte, for both languages.
class FusedSegmenter {
 public:
  /// Tokens + tags of one distinct trimmed sentence. Segmentation is a
  /// pure function of the sentence bytes, so the cached copy is
  /// byte-identical to recomputing it.
  struct CachedSentence {
    std::vector<std::string> tokens;
    std::vector<std::string> pos;
  };

  /// One memo entry. `cookie` / `cookie_generation` are an opaque slot
  /// for callers that layer their own per-sentence caches on top of the
  /// memo — core/ingest stores one interner handle per token there, so
  /// repeated sentences skip interning too. The segmenter never reads
  /// them; callers must treat a generation mismatch as "not filled"
  /// (entries outlive whatever run-scoped state the cookie refers to).
  struct CacheEntry {
    CachedSentence cached;
    uint64_t cookie_generation = 0;
    std::vector<uint64_t> cookie;
  };

  /// Open-addressing sentence-bytes -> CacheEntry memo. Flat slots keep
  /// a lookup at one probe chain over (hash, key) pairs — roughly half
  /// the cache misses of a node-based unordered_map — and find + insert
  /// share a single hash computation. Entries are heap-allocated so the
  /// pointers FindOrInsert hands out stay valid across growth.
  class SentenceCache {
   public:
    /// Returns the entry for `key`, inserting an empty one if absent
    /// (*inserted reports which). Returns nullptr without inserting
    /// when the cache is full and `key` is absent — the caller simply
    /// recomputes, so adversarial corpora with unbounded distinct
    /// sentences cannot grow the memo without limit.
    CacheEntry* FindOrInsert(std::string_view key, bool* inserted);

    size_t size() const { return count_; }

   private:
    struct Slot {
      uint64_t hash = 0;
      std::string key;
      std::unique_ptr<CacheEntry> entry;  // empty slot iff nullptr
    };

    void Grow();

    std::vector<Slot> slots_;
    size_t count_ = 0;
  };

  /// Per-thread reusable buffers; Segment is const and thread-safe as
  /// long as each thread passes its own Scratch.
  struct Scratch {
    SentenceCache cache;
    /// Decoded code points / classes / byte offsets of the sentence
    /// currently being segmented (memo misses only). byte_offsets has a
    /// trailing end sentinel so token strings can be copied straight out
    /// of the sentence bytes instead of re-encoded.
    std::vector<char32_t> cps;
    std::vector<CharClass> classes;
    std::vector<uint32_t> byte_offsets;
    /// False if a byte sequence in the current sentence failed to
    /// decode; those positions re-encode differently (U+FFFD), so the
    /// byte-copy fast path is off for that sentence.
    bool all_valid = true;
    std::vector<std::pair<size_t, size_t>> token_spans;
    std::u32string probe;  // reusable lexicon-lookup key
  };

  /// `pos_lexicon` must outlive the segmenter (it is read per token).
  FusedSegmenter(Language lang,
                 const std::vector<std::string>& tokenizer_lexicon,
                 const PosLexicon& pos_lexicon);

  /// Appends the segmented sentences of `text` to `out`. If `entry_out`
  /// is non-null, appends one memo-entry pointer per appended sentence
  /// (null when the sentence was not cached because the memo is full),
  /// letting callers read or fill the entry cookies.
  void Segment(std::string_view text, std::vector<LabeledSequence>* out,
               Scratch* scratch,
               std::vector<CacheEntry*>* entry_out = nullptr) const;

 private:
  /// Both tokenizers emit spans into scratch->token_spans only; the
  /// caller materializes token strings afterwards with an exact reserve.
  void TokenizeLatin(Scratch* scratch, size_t begin, size_t end) const;
  void TokenizeCjk(Scratch* scratch, size_t begin, size_t end) const;
  std::string TagToken(const Scratch& scratch, const std::string& token,
                       size_t begin, size_t end) const;

  bool ja_ = false;
  const PosLexicon& pos_lexicon_;
  /// CjkTokenizer's greedy lexicon, pre-decoded so the span lookups do
  /// not re-encode candidate substrings. Words that do not round-trip
  /// through UTF-8 decoding could never match an encoded span and are
  /// dropped; max_word_cps_ mirrors CjkTokenizer exactly.
  std::unordered_set<std::u32string> cjk_lexicon_;
  /// First code point → bitmask of word lengths present in the lexicon
  /// (bit L-2 set iff some word of L code points starts with that cp;
  /// lengths ≥ 65 saturate into bit 63). The greedy matcher skips the
  /// probe for any length whose bit is clear — by far the common case —
  /// and skips the whole position when the first cp has no entry.
  std::unordered_map<char32_t, uint64_t> cjk_first_cp_lens_;
  size_t max_word_cps_ = 1;
};

}  // namespace pae::text

#endif  // PAE_TEXT_FUSED_SEGMENTER_H_
