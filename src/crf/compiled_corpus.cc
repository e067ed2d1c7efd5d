#include "crf/compiled_corpus.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace pae::crf {

namespace {

/// Multiply-mix of one value into a running hash. Only the low
/// bits of the inputs reach the low bits of the product, so callers run
/// `Finish` before indexing a table with the result.
inline uint64_t Mix(uint64_t h, uint64_t v) {
  return (h ^ v) * 0x9ddfea08eb382d69ull;
}

inline uint64_t Finish(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 29;
  return h;
}

/// Ends a token in a model-space hash; no feature id is this large.
constexpr uint32_t kTokenEnd = UINT32_MAX;

/// Open-addressing set of representatives keyed by a 64-bit hash, for
/// one grouping pass. `same(rep)` settles a hash hit, so collisions
/// never merge unequal inputs.
class RepresentativeTable {
 public:
  explicit RepresentativeTable(size_t max_entries)
      : slots_(std::bit_ceil(2 * max_entries + 1)),
        mask_(slots_.size() - 1) {}

  /// Returns the representative `same` accepts among those stored under
  /// `hash`, or stores `candidate` and returns it.
  template <typename Same>
  uint32_t FindOrInsert(uint64_t hash, uint32_t candidate, Same&& same) {
    for (size_t slot = hash & mask_;; slot = (slot + 1) & mask_) {
      Entry& entry = slots_[slot];
      if (entry.rep == kEmpty) {
        entry = {hash, candidate};
        return candidate;
      }
      if (entry.hash == hash && same(entry.rep)) return entry.rep;
    }
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  struct Entry {
    uint64_t hash = 0;
    uint32_t rep = kEmpty;
  };
  std::vector<Entry> slots_;
  size_t mask_;
};

}  // namespace

void CompiledCorpus::Build(
    std::vector<const text::LabeledSequence*> sentences,
    const FeatureConfig& config) {
  // The previous build's dictionary size is the best available estimate
  // for the rebuilt one: across bootstrap iterations the sentence sample
  // changes but the feature vocabulary barely does.
  const size_t previous_features = features_.size();
  config_ = config;
  encoder_.Reset(config);
  features_ = util::FlatStringInterner();
  features_.Reserve(previous_features);
  stored_of_.clear();
  sentence_begin_.clear();
  token_begin_.clear();
  ids_.clear();
  remap_.clear();
  group_of_stored_.clear();
  group_first_.clear();
  bound_ = false;
  bound_generation_ = UINT64_MAX;

  // The template emits a fixed feature count per position: w[0] (1),
  // window words (2K), window PoS tags (2K + 1), pwin (1), sent (1).
  const uint32_t feats_per_token =
      static_cast<uint32_t>(4 * config_.window + 4);

  // Emission counts are exact up front (fixed per-token arity), so the
  // two big flat arrays get one allocation each; only the stored
  // sentences' pages are ever touched.
  size_t total_tokens = 0;
  for (const text::LabeledSequence* seq : sentences) {
    PAE_CHECK(seq != nullptr);
    total_tokens += seq->tokens.size();
  }
  ids_.reserve(total_tokens * feats_per_token);
  token_begin_.reserve(total_tokens + 1);
  sentence_begin_.reserve(sentences.size() + 1);
  stored_of_.reserve(sentences.size());
  sentence_begin_.push_back(0);
  token_begin_.push_back(0);

  // A sentence's corpus-space ids are a function of its tokens, PoS
  // tags and sentence bucket, and the template's w[0], p[0] and sent=
  // features recover all three from the ids. So an exact repeat of an
  // earlier sentence's text is found by hashing that text, and it is
  // never encoded.
  auto bucket = [&](const text::LabeledSequence& seq) {
    return std::min(seq.sentence_index, config_.max_sentence_bucket);
  };
  std::vector<const text::LabeledSequence*> stored_text;
  RepresentativeTable stored(sentences.size());
  for (const text::LabeledSequence* seq : sentences) {
    uint64_t h = Mix(Mix(0, seq->tokens.size()),
                     static_cast<uint32_t>(bucket(*seq)));
    for (size_t t = 0; t < seq->tokens.size(); ++t) {
      h = Mix(h, util::FlatStringInterner::Hash(seq->tokens[t]));
      if (t < seq->pos.size()) {
        h = Mix(h, util::FlatStringInterner::Hash(seq->pos[t]));
      }
    }
    const auto s = static_cast<uint32_t>(stored_text.size());
    const uint32_t rep =
        stored.FindOrInsert(Finish(h), s, [&](uint32_t other) {
          const text::LabeledSequence& first = *stored_text[other];
          return first.tokens == seq->tokens && first.pos == seq->pos &&
                 bucket(first) == bucket(*seq);
        });
    stored_of_.push_back(rep);
    if (rep != s) continue;

    stored_text.push_back(seq);
    encoder_.Encode(*seq, [&](size_t /*t*/, std::string_view feature) {
      ids_.push_back(features_.Intern(feature));
    });
    uint32_t cursor = token_begin_.back();
    for (size_t t = 0; t < seq->tokens.size(); ++t) {
      cursor += feats_per_token;
      token_begin_.push_back(cursor);
    }
    PAE_DCHECK_EQ(static_cast<size_t>(cursor), ids_.size());
    sentence_begin_.push_back(
        static_cast<uint32_t>(token_begin_.size() - 1));
  }
}

void CompiledCorpus::Bind(const CrfModel& model, uint64_t generation) {
  PAE_CHECK(built());
  if (bound_ && generation == bound_generation_) return;
  remap_.resize(features_.size());
  for (size_t id = 0; id < features_.size(); ++id) {
    remap_[id] = model.LookupFeature(features_.key(static_cast<int>(id)));
    // LookupFeature returns -1 (unknown) or a dense id inside the bound
    // model's dictionary; anything else would scatter out of bounds in
    // UnigramScores.
    PAE_DCHECK_GE(remap_[id], -1);
    PAE_DCHECK_LT(remap_[id], static_cast<int32_t>(model.num_features()));
  }
  Regroup();
  bound_generation_ = generation;
  bound_ = true;
}

uint64_t CompiledCorpus::ModelHash(size_t s) const {
  uint64_t h = 0;
  for (size_t tok = sentence_begin_[s]; tok < sentence_begin_[s + 1]; ++tok) {
    for (size_t j = token_begin_[tok]; j < token_begin_[tok + 1]; ++j) {
      const int32_t mapped = remap_[static_cast<size_t>(ids_[j])];
      if (mapped >= 0) h = Mix(h, static_cast<uint32_t>(mapped));
    }
    h = Mix(h, kTokenEnd);
  }
  return Finish(h);
}

bool CompiledCorpus::SameModelInput(size_t a, size_t b) const {
  const size_t a_tok = sentence_begin_[a];
  const size_t b_tok = sentence_begin_[b];
  const size_t n = sentence_begin_[a + 1] - a_tok;
  if (sentence_begin_[b + 1] - b_tok != n) return false;
  for (size_t t = 0; t < n; ++t) {
    size_t ja = token_begin_[a_tok + t];
    size_t jb = token_begin_[b_tok + t];
    const size_t a_hi = token_begin_[a_tok + t + 1];
    const size_t b_hi = token_begin_[b_tok + t + 1];
    // Walk both tokens' known features in order.
    for (;;) {
      while (ja < a_hi && remap_[static_cast<size_t>(ids_[ja])] < 0) ++ja;
      while (jb < b_hi && remap_[static_cast<size_t>(ids_[jb])] < 0) ++jb;
      if (ja == a_hi || jb == b_hi) {
        if (ja != a_hi || jb != b_hi) return false;
        break;
      }
      if (remap_[static_cast<size_t>(ids_[ja])] !=
          remap_[static_cast<size_t>(ids_[jb])]) {
        return false;
      }
      ++ja;
      ++jb;
    }
  }
  return true;
}

void CompiledCorpus::Regroup() {
  const size_t stored_count = num_stored();
  group_of_stored_.resize(stored_count);
  group_first_.clear();
  RepresentativeTable groups(stored_count);
  for (size_t s = 0; s < stored_count; ++s) {
    const auto next = static_cast<uint32_t>(group_first_.size());
    const uint32_t g = groups.FindOrInsert(
        ModelHash(s), next,
        [&](uint32_t other) { return SameModelInput(group_first_[other], s); });
    if (g == next) group_first_.push_back(static_cast<uint32_t>(s));
    group_of_stored_[s] = g;
  }
}

void CompiledCorpus::Materialize(size_t i, CompiledSequence* out) const {
  PAE_DCHECK_LT(i, size());
  MaterializeStored(stored_of_[i], out);
}

void CompiledCorpus::MaterializeGroup(size_t g, CompiledSequence* out) const {
  PAE_DCHECK_LT(g, num_groups());
  MaterializeStored(group_first_[g], out);
}

void CompiledCorpus::MaterializeStored(size_t s,
                                       CompiledSequence* out) const {
  PAE_DCHECK(bound_);
  PAE_DCHECK_LT(s, num_stored());
  PAE_DCHECK_EQ(remap_.size(), features_.size());
  const size_t tok_lo = sentence_begin_[s];
  const size_t tok_hi = sentence_begin_[s + 1];
  PAE_DCHECK_LE(tok_lo, tok_hi);
  PAE_DCHECK_LT(tok_hi, token_begin_.size());
  const size_t n = tok_hi - tok_lo;
  out->labels.clear();
  out->features.resize(n);
  for (size_t t = 0; t < n; ++t) {
    std::vector<int>& feats = out->features[t];
    feats.clear();
    const size_t lo = token_begin_[tok_lo + t];
    const size_t hi = token_begin_[tok_lo + t + 1];
    for (size_t j = lo; j < hi; ++j) {
      const int32_t mapped = remap_[static_cast<size_t>(ids_[j])];
      if (mapped >= 0) feats.push_back(mapped);
    }
  }
}

}  // namespace pae::crf
