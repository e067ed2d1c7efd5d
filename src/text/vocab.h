#ifndef PAE_TEXT_VOCAB_H_
#define PAE_TEXT_VOCAB_H_

#include <cstdint>
#include <string_view>

#include "util/interner.h"
#include "util/logging.h"

namespace pae::text {

/// Bidirectional string ↔ dense-id map shared by the ML modules.
/// Id 0 is reserved for the unknown token "<unk>".
///
/// Backed by `util::FlatStringInterner`: every accessor takes a
/// `std::string_view`, so call sites that hold a token slice or a
/// scratch buffer look words up without constructing a `std::string`
/// temporary, and `Word()` returns a view into the interner's arena
/// (stable for the Vocab's lifetime).
class Vocab {
 public:
  Vocab() { GetOrAdd("<unk>"); }

  static constexpr int32_t kUnkId = 0;

  /// Returns the id for `word`, inserting it if absent.
  int32_t GetOrAdd(std::string_view word) {
    return static_cast<int32_t>(words_.Intern(word));
  }

  /// Returns the id for `word` or kUnkId if absent.
  int32_t Lookup(std::string_view word) const {
    const int id = words_.Find(word);
    return id < 0 ? kUnkId : static_cast<int32_t>(id);
  }

  /// True if `word` is present.
  bool Contains(std::string_view word) const { return words_.Find(word) >= 0; }

  /// The word for `id`. The view stays valid as long as this Vocab does
  /// (insertions never move stored keys).
  std::string_view Word(int32_t id) const {
    PAE_CHECK_GE(id, 0);
    PAE_CHECK_LT(static_cast<size_t>(id), words_.size());
    return words_.key(id);
  }

  size_t size() const { return words_.size(); }

  /// Pre-sizes for `expected_words` total words (the "<unk>" sentinel
  /// counts). Bulk builders with a known final size (model load paths,
  /// post-frequency-cut loops) skip the rehash storm entirely.
  void Reserve(size_t expected_words) { words_.Reserve(expected_words); }

 private:
  util::FlatStringInterner words_;
};

}  // namespace pae::text

#endif  // PAE_TEXT_VOCAB_H_
