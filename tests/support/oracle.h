#ifndef PAE_TESTS_SUPPORT_ORACLE_H_
#define PAE_TESTS_SUPPORT_ORACLE_H_

// Reference implementations the product's fused paths are held to. They
// are kept deliberately naive — one phase at a time, through the DOM —
// and live only in the tests and the ingestion benchmark.

#include <string>
#include <string_view>
#include <vector>

#include "core/document.h"
#include "core/types.h"
#include "html/parser.h"
#include "html/table_extractor.h"
#include "text/labeled_sequence.h"
#include "text/pos_tagger.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace pae::oracle {

/// Every descendant element of `node` (itself included) with the given
/// lowercase tag name, in document order.
std::vector<const html::HtmlNode*> FindAll(const html::HtmlNode& node,
                                           std::string_view tag);

/// The cell grid of one DOM <table>: for every descendant <tr>, the
/// texts of its direct <td>/<th> children (CollapseCellText'ed);
/// cell-less rows are dropped.
html::TableGrid ExtractGrid(const html::HtmlNode& table);

/// The DOM table front end that html::StreamScanner's tables() replaces:
/// every <table> in the document whose grid GridToDictionary accepts.
std::vector<html::DictionaryTable> ExtractDictionaryTables(
    const html::HtmlNode& root);

/// The modular text front end that text::FusedSegmenter replaces:
///   for s in SplitSentences(text): tokens = Tokenize(s);
///     if empty continue; pos = Tag(tokens); sentence_index++
std::vector<text::LabeledSequence> SegmentText(
    std::string_view text, const text::Tokenizer& tokenizer,
    const text::PosTagger& pos_tagger);

/// The DOM page front end that html::StreamScanner + FusedSegmenter
/// replace: ParseHtml → ExtractText → SegmentText.
std::vector<text::LabeledSequence> SegmentHtml(
    std::string_view html, const text::Tokenizer& tokenizer,
    const text::PosTagger& pos_tagger);

/// The barrier ingestion that core::IngestCorpus replaces: per page,
/// ParseHtml → ExtractDictionaryTables + SegmentHtml, with `threads`
/// workers (0 = all hardware threads, negative clamps to 1) each filling
/// its own page slot. IngestCorpus(corpus, {threads}).corpus equals it
/// field for field.
core::ProcessedCorpus ProcessCorpus(const core::Corpus& corpus,
                                    int threads = 1);

/// Random tag soup: structural tokens (often unbalanced), text with
/// entities, comments, script/style and raw junk, so a differential
/// walks the HTML front end's recovery paths, not just happy HTML.
std::string RandomHtmlSoup(Rng* rng);

}  // namespace pae::oracle

#endif  // PAE_TESTS_SUPPORT_ORACLE_H_
