#include "text/fused_segmenter.h"

#include <algorithm>
#include <cctype>

#include "text/utf8.h"

namespace pae::text {

namespace {

constexpr size_t kInitialCacheSlots = 1024;        // power of two
constexpr size_t kMaxCachedSentences = size_t{1} << 17;

/// StripAsciiWhitespace trims bytes; trimming the raw sentence bytes is
/// equivalent to trimming decoded code points because every byte of a
/// multi-byte sequence is >= 0x80 and can never test as ASCII space.
bool IsAsciiSpaceByte(char c) {
  return static_cast<unsigned char>(c) < 128 &&
         std::isspace(static_cast<unsigned char>(c)) != 0;
}

bool IsDigitCp(char32_t cp) {
  return (cp >= U'0' && cp <= U'9') || (cp >= 0xFF10 && cp <= 0xFF19);
}

}  // namespace

FusedSegmenter::CachedSentence* FusedSegmenter::SentenceCache::FindOrInsert(
    std::string_view key, bool* inserted) {
  if (slots_.empty()) slots_.resize(kInitialCacheSlots);
  const uint64_t hash = std::hash<std::string_view>{}(key);
  size_t mask = slots_.size() - 1;
  size_t idx = static_cast<size_t>(hash) & mask;
  while (slots_[idx].entry != nullptr) {
    if (slots_[idx].hash == hash && slots_[idx].key == key) {
      *inserted = false;
      return slots_[idx].entry.get();
    }
    idx = (idx + 1) & mask;
  }
  if (count_ >= kMaxCachedSentences) {
    *inserted = false;
    return nullptr;
  }
  if ((count_ + 1) * 2 > slots_.size()) {
    Grow();
    mask = slots_.size() - 1;
    idx = static_cast<size_t>(hash) & mask;
    while (slots_[idx].entry != nullptr) idx = (idx + 1) & mask;
  }
  Slot& slot = slots_[idx];
  slot.hash = hash;
  slot.key.assign(key.data(), key.size());
  slot.entry = std::make_unique<CachedSentence>();
  ++count_;
  *inserted = true;
  return slot.entry.get();
}

void FusedSegmenter::SentenceCache::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.clear();
  slots_.resize(old.size() * 2);
  const size_t mask = slots_.size() - 1;
  for (Slot& slot : old) {
    if (slot.entry == nullptr) continue;
    size_t idx = static_cast<size_t>(slot.hash) & mask;
    while (slots_[idx].entry != nullptr) idx = (idx + 1) & mask;
    slots_[idx] = std::move(slot);
  }
}

FusedSegmenter::FusedSegmenter(
    Language lang, const std::vector<std::string>& tokenizer_lexicon,
    const PosLexicon& pos_lexicon)
    : ja_(lang == Language::kJa), pos_lexicon_(pos_lexicon) {
  if (!ja_) return;
  std::string round_trip;
  for (const std::string& word : tokenizer_lexicon) {
    if (word.empty()) continue;
    // CjkTokenizer takes its probe limit from every non-empty word, even
    // ones that could never match; mirror that before the filter below.
    max_word_cps_ = std::max(max_word_cps_, Utf8Length(word));
    const std::vector<char32_t> cps = DecodeUtf8(word);
    round_trip.clear();
    for (const char32_t cp : cps) AppendUtf8(cp, &round_trip);
    // The tokenizer compares lexicon entries against re-encoded spans, so
    // a word whose bytes do not round-trip through decoding can never
    // match and is safe to drop from the code-point set.
    if (round_trip != word) continue;
    if (cps.size() >= 2) {
      const size_t bit = std::min<size_t>(cps.size() - 2, 63);
      cjk_first_cp_lens_[cps[0]] |= uint64_t{1} << bit;
    }
    cjk_lexicon_.emplace(cps.begin(), cps.end());
  }
}

void FusedSegmenter::Segment(std::string_view text,
                             std::vector<LabeledSequence>* out,
                             Scratch* scratch) const {
  int sentence_index = static_cast<int>(out->size());

  auto emit = [&](size_t byte_begin, size_t byte_end) {
    while (byte_begin < byte_end && IsAsciiSpaceByte(text[byte_begin])) {
      ++byte_begin;
    }
    while (byte_end > byte_begin && IsAsciiSpaceByte(text[byte_end - 1])) {
      --byte_end;
    }
    if (byte_begin == byte_end) return;

    // Memo lookup by the trimmed sentence bytes — segmentation is a pure
    // function of them. Templated product pages repeat most sentences
    // corpus-wide, so a hit skips decode + tokenize + tag entirely and
    // copies byte-identical results.
    const std::string_view key =
        text.substr(byte_begin, byte_end - byte_begin);
    bool inserted = false;
    CachedSentence* cached = scratch->cache.FindOrInsert(key, &inserted);
    if (cached != nullptr && !inserted) {
      if (cached->tokens.empty()) return;  // all-skip sentence
      LabeledSequence seq;
      seq.tokens = cached->tokens;
      seq.pos = cached->pos;
      seq.sentence_index = sentence_index++;
      out->push_back(std::move(seq));
      return;
    }

    // Miss: decode just this sentence. NextCodepoint is context-free, so
    // decoding the span equals the matching slice of a whole-page decode.
    scratch->cps.clear();
    scratch->byte_offsets.clear();
    scratch->all_valid = true;
    for (size_t pos = 0; pos < key.size();) {
      scratch->byte_offsets.push_back(static_cast<uint32_t>(pos));
      const size_t before = pos;
      const char32_t cp = NextCodepoint(key, &pos);
      scratch->cps.push_back(cp);
      // A decode failure consumes one byte; a genuine U+FFFD consumes
      // its canonical three. Everything NextCodepoint accepts re-encodes
      // to the exact input bytes (overlong forms are rejected).
      if (cp == kReplacementChar && pos - before != 3) {
        scratch->all_valid = false;
      }
    }
    scratch->byte_offsets.push_back(static_cast<uint32_t>(key.size()));
    const size_t m = scratch->cps.size();
    scratch->classes.resize(m);
    for (size_t i = 0; i < m; ++i) {
      scratch->classes[i] = ClassifyChar(scratch->cps[i]);
    }

    scratch->token_spans.clear();
    if (ja_) {
      TokenizeCjk(scratch, 0, m);
    } else {
      TokenizeLatin(scratch, 0, m);
    }
    const std::vector<std::pair<size_t, size_t>>& spans =
        scratch->token_spans;
    LabeledSequence seq;
    seq.tokens.reserve(spans.size());
    for (const auto& [tb, te] : spans) {
      std::string& token = seq.tokens.emplace_back();
      if (scratch->all_valid) {
        const uint32_t token_begin = scratch->byte_offsets[tb];
        token.assign(key.data() + token_begin,
                     scratch->byte_offsets[te] - token_begin);
      } else {
        for (size_t k = tb; k < te; ++k) {
          AppendUtf8(scratch->cps[k], &token);
        }
      }
    }
    seq.pos.reserve(spans.size());
    for (size_t t = 0; t < spans.size(); ++t) {
      seq.pos.push_back(TagToken(*scratch, seq.tokens[t], spans[t].first,
                                 spans[t].second));
    }
    if (cached != nullptr) {
      cached->tokens = seq.tokens;
      cached->pos = seq.pos;
    }
    if (seq.tokens.empty()) return;
    seq.sentence_index = sentence_index++;
    out->push_back(std::move(seq));
  };

  // SplitSentences boundary rules, walked over the raw bytes: every
  // NextCodepoint failure consumes exactly one byte, so byte positions
  // reached here are exactly the code-point boundaries of a whole-page
  // decode, and only the '.' rule needs the neighbor classes (which
  // deliberately cross sentence edges, hence the running prev_digit).
  size_t start = 0;
  bool prev_digit = false;
  for (size_t pos = 0; pos < text.size();) {
    const size_t cp_begin = pos;
    const char32_t cp = NextCodepoint(text, &pos);
    bool boundary = false;
    if (cp == U'\n' || cp == 0x3002 /* 。 */ || cp == U'!' || cp == U'?' ||
        cp == 0xFF01 /* ！ */ || cp == 0xFF1F /* ？ */) {
      boundary = true;
    } else if (cp == U'.') {
      bool digit_after = false;
      if (pos < text.size()) {
        size_t peek = pos;
        digit_after = IsDigitCp(NextCodepoint(text, &peek));
      }
      boundary = !(prev_digit && digit_after);
    }
    prev_digit = IsDigitCp(cp);
    if (boundary) {
      // The boundary code point belongs to the sentence unless it is a
      // newline, exactly as SplitSentences appends before flushing.
      emit(start, cp == U'\n' ? cp_begin : pos);
      start = pos;
    }
  }
  emit(start, text.size());
}

void FusedSegmenter::TokenizeLatin(Scratch* scratch, size_t begin,
                                   size_t end) const {
  const std::vector<char32_t>& cps = scratch->cps;
  const std::vector<CharClass>& classes = scratch->classes;
  std::vector<std::pair<size_t, size_t>>& spans = scratch->token_spans;

  size_t token_begin = begin;
  bool open = false;
  CharClass current_class = CharClass::kSpace;

  auto flush = [&](size_t stop) {
    if (!open) return;
    spans.emplace_back(token_begin, stop);
    open = false;
  };

  for (size_t i = begin; i < end; ++i) {
    const char32_t cp = cps[i];
    const CharClass cls = classes[i];
    if (cls == CharClass::kSpace) {
      flush(i);
      current_class = CharClass::kSpace;
      continue;
    }
    // A '.' or ',' between two digits stays inside the number token;
    // note current_class is intentionally left at kDigit.
    if (cls == CharClass::kSymbol && (cp == U'.' || cp == U',') &&
        current_class == CharClass::kDigit && i + 1 < end &&
        classes[i + 1] == CharClass::kDigit) {
      if (!open) {
        token_begin = i;
        open = true;
      }
      continue;
    }
    if (cls == CharClass::kSymbol) {
      flush(i);
      spans.emplace_back(i, i + 1);
      current_class = CharClass::kSymbol;
      continue;
    }
    const bool same_run =
        (cls == current_class) ||
        (cls == CharClass::kLatin && current_class == CharClass::kLatin);
    if (!same_run) flush(i);
    if (!open) {
      token_begin = i;
      open = true;
    }
    current_class = cls;
  }
  flush(end);
}

void FusedSegmenter::TokenizeCjk(Scratch* scratch, size_t begin,
                                 size_t end) const {
  const std::vector<char32_t>& cps = scratch->cps;
  const std::vector<CharClass>& classes = scratch->classes;
  std::vector<std::pair<size_t, size_t>>& spans = scratch->token_spans;

  auto push = [&](size_t tb, size_t te) { spans.emplace_back(tb, te); };
  auto run_end = [&](size_t from, CharClass cls) {
    size_t j = from;
    while (j < end && classes[j] == cls) ++j;
    return j;
  };

  size_t i = begin;
  while (i < end) {
    const CharClass cls = classes[i];
    switch (cls) {
      case CharClass::kSpace:
        ++i;
        break;
      case CharClass::kDigit:
      case CharClass::kLatin:
      case CharClass::kKatakana: {
        const size_t j = run_end(i, cls);
        push(i, j);
        i = j;
        break;
      }
      case CharClass::kHiragana:
      case CharClass::kCjk: {
        // Greedy longest match against the lexicon within the run. The
        // first-cp length mask skips every probe that cannot match, so
        // the common no-entry position costs one small-map lookup.
        const size_t j = run_end(i, cls);
        while (i < j) {
          size_t best = 1;
          const auto mask_it = cjk_first_cp_lens_.find(cps[i]);
          if (mask_it != cjk_first_cp_lens_.end()) {
            const uint64_t mask = mask_it->second;
            const size_t limit = std::min(max_word_cps_, j - i);
            for (size_t len = limit; len >= 2; --len) {
              const size_t bit = len - 2;
              if (bit < 63 && ((mask >> bit) & 1) == 0) continue;
              scratch->probe.assign(cps.data() + i, len);
              if (cjk_lexicon_.count(scratch->probe) > 0) {
                best = len;
                break;
              }
            }
          }
          push(i, i + best);
          i += best;
        }
        break;
      }
      case CharClass::kSymbol:
      case CharClass::kOther:
        push(i, i + 1);
        ++i;
        break;
    }
  }
}

std::string FusedSegmenter::TagToken(const Scratch& scratch,
                                     const std::string& token, size_t begin,
                                     size_t end) const {
  const auto it = pos_lexicon_.word_tags.find(token);
  if (it != pos_lexicon_.word_tags.end()) return it->second;

  const std::vector<char32_t>& cps = scratch.cps;
  const std::vector<CharClass>& classes = scratch.classes;
  if (begin == end) return std::string(kPosSymbol);

  bool all_digits = true;
  bool all_hiragana = true;
  for (size_t k = begin; k < end; ++k) {
    if (classes[k] != CharClass::kDigit) all_digits = false;
    if (classes[k] != CharClass::kHiragana) all_hiragana = false;
  }
  if (all_digits) return std::string(kPosNumber);
  // Latin numbers may keep an inner separator ("2,5"); still NUM.
  if (classes[begin] == CharClass::kDigit &&
      classes[end - 1] == CharClass::kDigit) {
    bool numeric = true;
    for (size_t k = begin; k < end; ++k) {
      if (classes[k] != CharClass::kDigit && cps[k] != U'.' &&
          cps[k] != U',') {
        numeric = false;
        break;
      }
    }
    if (numeric) return std::string(kPosNumber);
  }
  if (end - begin == 1 && (classes[begin] == CharClass::kSymbol ||
                           classes[begin] == CharClass::kOther)) {
    return std::string(kPosSymbol);
  }
  if (all_hiragana) return std::string(kPosParticle);
  return std::string(kPosNoun);
}

}  // namespace pae::text
