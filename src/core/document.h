#ifndef PAE_CORE_DOCUMENT_H_
#define PAE_CORE_DOCUMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "html/table_extractor.h"
#include "text/labeled_sequence.h"
#include "text/pos_tagger.h"
#include "text/tokenizer.h"

namespace pae::core {

/// A product page after HTML parsing, sentence splitting, tokenization
/// and PoS tagging — the representation every pipeline module works on.
struct ProcessedPage {
  std::string product_id;
  /// Tokenized + PoS-tagged sentences (title first). `labels` are empty
  /// until the training-set generator / tagger fills them.
  std::vector<text::LabeledSequence> sentences;
  /// Dictionary-form spec tables found on the page (§V-A seed source).
  std::vector<html::DictionaryTable> tables;
};

/// A fully preprocessed corpus plus the language resources needed to
/// tokenize further strings (e.g. seed values during distant
/// supervision). IngestCorpus / IngestCorpusDir (core/ingest.h) build it.
struct ProcessedCorpus {
  std::string category;
  text::Language language = text::Language::kJa;
  std::vector<ProcessedPage> pages;
  std::vector<std::string> query_log;

  std::unique_ptr<text::Tokenizer> tokenizer;
  std::unique_ptr<text::PosTagger> pos_tagger;

  /// Tokenizes + tags an arbitrary string with the corpus resources.
  std::vector<std::string> Tokenize(const std::string& s) const {
    return tokenizer->Tokenize(s);
  }
};

}  // namespace pae::core

#endif  // PAE_CORE_DOCUMENT_H_
