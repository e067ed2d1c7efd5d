#ifndef PAE_CORE_CORPUS_IO_H_
#define PAE_CORE_CORPUS_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "util/status.h"

namespace pae::core {

/// On-disk corpus layout used by the CLI tools (`pae_datagen`,
/// `pae_extract`):
///
///   <dir>/manifest.tsv       category \t language ("ja"|"de")
///   <dir>/pages/<id>.html    one file per product page
///   <dir>/queries.txt        one query per line
///   <dir>/lexicon.txt        tokenizer dictionary, one word per line
///   <dir>/pos_lexicon.tsv    word \t tag
///   <dir>/truth.tsv          optional ground truth:
///                            pid \t attr \t value \t correct \t pair_valid
///   <dir>/aliases.tsv        optional: surface \t canonical
///
/// Tabs and newlines inside values are replaced by spaces on write.

/// Writes `corpus` under `dir` (created if needed).
Status SaveCorpus(const Corpus& corpus, const std::string& dir);

/// The corpus language resources without the pages: what a serving
/// process needs to build an ExtractionEngine around a persisted model.
struct CorpusResources {
  std::string category;
  text::Language language = text::Language::kJa;
  std::vector<std::string> tokenizer_lexicon;
  text::PosLexicon pos_lexicon;
};

/// Reads manifest.tsv + lexicon.txt + pos_lexicon.tsv from `dir` without
/// touching pages/ — O(lexicon) instead of O(corpus), so a daemon can
/// restart in milliseconds against a directory holding millions of
/// pages.
Result<CorpusResources> LoadCorpusResources(const std::string& dir);

/// Reads a corpus previously written by SaveCorpus (or assembled by
/// hand in the same layout).
Result<Corpus> LoadCorpus(const std::string& dir);

/// Page-granular reader over the same on-disk layout, built for the
/// single-pass streaming ingestion (core/ingest.h): `Open` reads only
/// the O(lexicon) resources and lists + sorts the page files; the page
/// bytes are then read one page at a time by `ReadPageHtml`, which is
/// safe to call from many threads at once — each call opens its own
/// descriptor and reads straight into the caller's reused buffer, so
/// parse workers overlap page-file IO with parsing instead of waiting
/// behind LoadCorpus materializing the whole corpus first.
///
/// Page order (and hence page index ↔ product id) is the sorted-path
/// order LoadCorpus uses, so index p here is page p there.
class StreamingCorpusReader {
 public:
  /// Reads manifest/lexicons/queries and lists pages/. Fails like
  /// LoadCorpus does (missing manifest or pages/ directory).
  static Result<StreamingCorpusReader> Open(const std::string& dir);

  const std::string& category() const { return resources_.category; }
  text::Language language() const { return resources_.language; }
  const CorpusResources& resources() const { return resources_; }
  const std::vector<std::string>& query_log() const { return query_log_; }

  size_t page_count() const { return page_paths_.size(); }
  const std::string& product_id(size_t page) const {
    return product_ids_[page];
  }
  /// Sum of on-disk page sizes.
  uint64_t total_page_bytes() const { return total_page_bytes_; }

  /// Reads page `page`'s HTML into `*html`, reusing its capacity.
  /// Thread-safe: no reader state is touched.
  Status ReadPageHtml(size_t page, std::string* html) const;

 private:
  CorpusResources resources_;
  std::vector<std::string> query_log_;
  std::vector<std::string> page_paths_;
  std::vector<std::string> product_ids_;
  uint64_t total_page_bytes_ = 0;
};

/// Writes the truth sample (truth.tsv + aliases.tsv) under `dir`.
Status SaveTruth(const TruthSample& truth, const std::string& dir);

/// Reads truth.tsv/aliases.tsv from `dir`. The valid-pair set is
/// rebuilt from the correct entries.
Result<TruthSample> LoadTruth(const std::string& dir);

/// Writes triples as TSV: product_id \t attribute \t value.
Status SaveTriples(const std::vector<Triple>& triples,
                   const std::string& path);

/// Reads a triples TSV written by SaveTriples.
Result<std::vector<Triple>> LoadTriples(const std::string& path);

}  // namespace pae::core

#endif  // PAE_CORE_CORPUS_IO_H_
