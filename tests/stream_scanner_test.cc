// Equivalence proofs for the two fused streaming-ingestion components:
//
//   * html::StreamScanner must produce byte-identical visible text and
//     equal dictionary tables to the DOM path (ParseHtml → ExtractText /
//     oracle::ExtractDictionaryTables in tests/support), including on
//     malformed tag soup — the scanner replicates ParseHtml's tolerant
//     recovery, not an idealized HTML grammar.
//   * text::FusedSegmenter must produce exactly the LabeledSequences of
//     the modular pipeline (SplitSentences → Tokenizer → PosTagger) for
//     both corpus languages, through both its decode path and its
//     sentence-memo hit path, including on invalid UTF-8.
//
// Each half pairs handcrafted edge cases with a seeded randomized
// differential so the contracts stay enforced as the fused code evolves.

#include "html/stream_scanner.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "html/parser.h"
#include "html/table_extractor.h"
#include "support/oracle.h"
#include "text/fused_segmenter.h"
#include "text/pos_tagger.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace pae {
namespace {

// ---------------------------------------------------------------------------
// StreamScanner vs. the DOM path.

void ExpectScannerMatchesDom(const std::string& html_src) {
  html::StreamScanner scanner;
  scanner.Scan(html_src);

  const std::unique_ptr<html::HtmlNode> dom = html::ParseHtml(html_src);
  EXPECT_EQ(scanner.text(), html::ExtractText(*dom)) << "html: " << html_src;

  const std::vector<html::DictionaryTable> dom_tables =
      oracle::ExtractDictionaryTables(*dom);
  ASSERT_EQ(scanner.tables().size(), dom_tables.size())
      << "html: " << html_src;
  for (size_t i = 0; i < dom_tables.size(); ++i) {
    EXPECT_EQ(scanner.tables()[i].entries, dom_tables[i].entries)
        << "table " << i << " of html: " << html_src;
  }
}

TEST(StreamScannerTest, HandcraftedEdgeCases) {
  const std::vector<std::string> cases = {
      // Plain structure and block breaks.
      "",
      "just text, no markup",
      "<p>one</p><p>two</p>",
      "<div>a<span>b</span>c</div>",
      "a<br>b<br/>c<hr>d",
      // Well-formed n×2 and 2×n dictionary tables.
      "<table><tr><td>Brand</td><td>Acme</td></tr>"
      "<tr><td>Zoom</td><td>10x</td></tr></table>",
      "<table><tr><th>Brand</th><th>Zoom</th></tr>"
      "<tr><td>Acme</td><td>10x</td></tr></table>",
      // Nested table inside a cell: only the inner/outer grids ParseHtml
      // sees may become dictionaries.
      "<table><tr><td>k</td><td><table><tr><td>a</td><td>b</td></tr>"
      "<tr><td>c</td><td>d</td></tr></table></td></tr>"
      "<tr><td>x</td><td>y</td></tr></table>",
      // Unclosed cells / rows / table: everything closes at end of input.
      "<table><tr><td>Brand<td>Acme<tr><td>Zoom<td>10x",
      "<table><tr><td>a</td><td>b",
      // Cells with markup, entities, and whitespace runs to collapse.
      "<table><tr><td> a&amp;b \n c </td><td><b>v</b>1</td></tr>"
      "<tr><td>k2</td><td>v2</td></tr></table>",
      // Empty cells are dropped by GridToDictionary.
      "<table><tr><td></td><td>v</td></tr><tr><td>k</td><td>w</td></tr>"
      "</table>",
      // Non-dictionary shapes: 1 row, ragged rows, 3 columns.
      "<table><tr><td>only</td><td>row</td></tr></table>",
      "<table><tr><td>a</td></tr><tr><td>b</td><td>c</td></tr></table>",
      "<table><tr><td>a</td><td>b</td><td>c</td></tr>"
      "<tr><td>d</td><td>e</td><td>f</td></tr></table>",
      // script/style bodies are dropped, even with fake tags inside.
      "before<script>var x = '<td>not a cell</td>';</script>after",
      "a<style>p { content: \"</table>\" }</style>b",
      "<script>unterminated",
      // Comments, doctype, processing cruft.
      "<!doctype html><!-- c --><p>x<!-- <td>fake</td> --></p>",
      "<!-- unterminated comment <p>gone",
      // Void and self-closing elements never take children.
      "<img src=\"a.png\">text<input value=\"v\"><meta charset=\"utf-8\">",
      "<div/>tail",
      // Unmatched close tags are ignored; stray brackets survive.
      "</div>text</table></td>more",
      "a < b and c > d",
      "tail<",
      "tail<t",
      "<>empty tag<>",
      // Entities in visible text, including numeric and unknown ones.
      "&lt;tag&gt; &amp; &quot;q&quot; &#65;&#x42; &unknown; &#xZZ;",
      // Attributes with '>' inside quotes.
      "<div title=\"a > b\">inside</div>",
      // Deep unbalanced nesting.
      "<div><p><span><b>deep</div>after",
      // Multi-byte UTF-8 page text around structure.
      "<p>光学ズーム 10倍。</p><table><tr><td>画素</td><td>2,000万</td></tr>"
      "<tr><td>ズーム</td><td>10倍</td></tr></table>",
  };
  for (const std::string& html_src : cases) {
    SCOPED_TRACE(html_src);
    ExpectScannerMatchesDom(html_src);
  }
}

TEST(StreamScannerTest, ScannerStateResetsBetweenPages) {
  // One scanner instance reused across pages (the ingestion pattern)
  // must match a fresh DOM parse of each page, in any order.
  const std::vector<std::string> pages = {
      "<table><tr><td>k</td><td>v</td></tr><tr><td>a</td><td>b</td></tr>"
      "</table>",
      "plain text only",
      "<table><tr><td>unclosed",
      "<p>after the broken page</p>",
  };
  html::StreamScanner scanner;
  for (const std::string& page : pages) {
    SCOPED_TRACE(page);
    scanner.Scan(page);
    const std::unique_ptr<html::HtmlNode> dom = html::ParseHtml(page);
    EXPECT_EQ(scanner.text(), html::ExtractText(*dom));
    const auto dom_tables = oracle::ExtractDictionaryTables(*dom);
    ASSERT_EQ(scanner.tables().size(), dom_tables.size());
    for (size_t i = 0; i < dom_tables.size(); ++i) {
      EXPECT_EQ(scanner.tables()[i].entries, dom_tables[i].entries);
    }
  }
}

TEST(StreamScannerTest, RandomizedSoupDifferential) {
  Rng rng(20260809);
  html::StreamScanner scanner;
  for (int iter = 0; iter < 400; ++iter) {
    const std::string html_src = oracle::RandomHtmlSoup(&rng);
    SCOPED_TRACE("iter " + std::to_string(iter) + ": " + html_src);
    scanner.Scan(html_src);
    const std::unique_ptr<html::HtmlNode> dom = html::ParseHtml(html_src);
    ASSERT_EQ(scanner.text(), html::ExtractText(*dom));
    const auto dom_tables = oracle::ExtractDictionaryTables(*dom);
    ASSERT_EQ(scanner.tables().size(), dom_tables.size());
    for (size_t i = 0; i < dom_tables.size(); ++i) {
      ASSERT_EQ(scanner.tables()[i].entries, dom_tables[i].entries);
    }
  }
}

// ---------------------------------------------------------------------------
// FusedSegmenter vs. the modular pipeline.

std::vector<std::string> JaLexicon() {
  return {"光学ズーム", "手ぶれ補正", "画素", "防水", "ズーム"};
}

text::PosLexicon TestPosLexicon() {
  text::PosLexicon lexicon;
  lexicon.word_tags = {{"万", "UNIT"}, {"mm", "UNIT"}, {"倍", "UNIT"},
                       {"の", "PRT"},  {"kg", "UNIT"}};
  return lexicon;
}

/// The modular reference (oracle::SegmentText) over freshly built
/// resources.
std::vector<text::LabeledSequence> ModularSegment(
    text::Language lang, const std::vector<std::string>& lexicon,
    const text::PosLexicon& pos_lexicon, std::string_view page_text) {
  const std::unique_ptr<text::Tokenizer> tokenizer =
      text::MakeTokenizer(lang, lexicon);
  const text::PosTagger tagger(lang, pos_lexicon);
  return oracle::SegmentText(page_text, *tokenizer, tagger);
}

void ExpectSequencesEqual(const std::vector<text::LabeledSequence>& fused,
                          const std::vector<text::LabeledSequence>& modular) {
  ASSERT_EQ(fused.size(), modular.size());
  for (size_t i = 0; i < fused.size(); ++i) {
    EXPECT_EQ(fused[i].tokens, modular[i].tokens) << "sentence " << i;
    EXPECT_EQ(fused[i].pos, modular[i].pos) << "sentence " << i;
    EXPECT_EQ(fused[i].sentence_index, modular[i].sentence_index)
        << "sentence " << i;
  }
}

void ExpectFusedMatchesModular(text::Language lang,
                               const std::vector<std::string>& lexicon,
                               const text::PosLexicon& pos_lexicon,
                               const std::string& page_text) {
  const text::FusedSegmenter segmenter(lang, lexicon, pos_lexicon);
  text::FusedSegmenter::Scratch scratch;
  const std::vector<text::LabeledSequence> modular =
      ModularSegment(lang, lexicon, pos_lexicon, page_text);

  // First pass exercises the decode path, second the memo-hit path; both
  // must match the modular pipeline exactly.
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    std::vector<text::LabeledSequence> fused;
    segmenter.Segment(page_text, &fused, &scratch);
    ExpectSequencesEqual(fused, modular);
  }
}

TEST(FusedSegmenterTest, HandcraftedJapanese) {
  const std::vector<std::string> cases = {
      "",
      "光学ズーム10倍。手ぶれ補正つき。",
      // '.' between digits does not split; elsewhere it does.
      "重さ1.5kg。価格は10.000円",
      "バージョン2.betaです。",
      "末尾が数字で終わる1.",
      ".先頭ピリオド",
      // Every boundary marker, including fullwidth.
      "あ。い!う?え！お？か\nき",
      // Fullwidth digits around '.' (IsDigitCp covers FF10-FF19).
      "値は１.５です",
      // Whitespace-only and empty sentences are dropped without
      // consuming a sentence_index.
      "  \n  。。  実文です。 \n ",
      // Lexicon longest-match vs single-char fallback.
      "光学ズームと光学と補正",
      // Latin/katakana/digit runs inside CJK text.
      "SONYカメラABC123で2,000万画素",
      // Invalid UTF-8: stray continuation, truncated lead, 0xFF.
      std::string("正\x80常。") + "\xE3\x81" + "。末尾\xFF",
      std::string("\xC3") /* truncated at end of page */,
      // A sentence whose only content is invalid bytes.
      std::string("\x80\x80。ほげ。"),
  };
  for (const std::string& page : cases) {
    SCOPED_TRACE(page);
    ExpectFusedMatchesModular(text::Language::kJa, JaLexicon(),
                              TestPosLexicon(), page);
  }
}

TEST(FusedSegmenterTest, HandcraftedGerman) {
  text::PosLexicon pos_lexicon;
  pos_lexicon.word_tags = {{"mm", "UNIT"}, {"kg", "UNIT"}, {"Watt", "UNIT"}};
  const std::vector<std::string> cases = {
      "",
      "Die Maschine hat 15 bar Druck. Sie wiegt 4,5 kg.",
      // Decimal points and thousands separators stay inside numbers.
      "Preis 1.299 Euro. Fassungsvermögen 1,8 Liter!",
      "Ende ohne Punkt",
      "Satz eins.Satz zwei?Satz drei",
      "Umlaute: Kaffeemaschine für Espresso übergroß.",
      std::string("kaputt\xC0\xC0 bytes. Noch ein Satz."),
  };
  for (const std::string& page : cases) {
    SCOPED_TRACE(page);
    ExpectFusedMatchesModular(text::Language::kDe, {}, pos_lexicon, page);
  }
}

/// Random page-text generator biased toward the segmenter's tricky
/// spots: boundary chars next to digits, lexicon prefixes, fullwidth
/// digits, and (optionally) invalid byte sequences.
std::string RandomPageText(Rng* rng, text::Language lang,
                           bool allow_invalid) {
  static const std::vector<std::string> kJaPieces = {
      "光学ズーム", "光学",  "ズーム", "手ぶれ補正", "補正",   "画素",
      "の",         "です",  "カメラ", "ソニー",     "10",     "2,000",
      "1.5",        "１５",  "。",     ".",          "!",      "？",
      "\n",         " ",     "、",     "万",         "倍",     "mm",
      "ABC",        "x",
  };
  static const std::vector<std::string> kDePieces = {
      "Kaffee", "Maschine", "mit",  "und",  "1.299", "4,5", "15",
      "bar",    "kg",       "Watt", ".",    "!",     "?",   "\n",
      " ",      "für",      "groß", "XL",   ",",     "-",
  };
  static const std::vector<std::string> kInvalid = {
      "\x80", "\xC3", "\xE3\x81", "\xF0\x9F", "\xFF", "\xED\xA0\x80",
  };
  const auto& pieces =
      lang == text::Language::kJa ? kJaPieces : kDePieces;
  std::string out;
  const int n = static_cast<int>(rng->NextInt(0, 40));
  for (int i = 0; i < n; ++i) {
    if (allow_invalid && rng->Bernoulli(0.06)) {
      out += kInvalid[static_cast<size_t>(
          rng->NextInt(0, static_cast<int64_t>(kInvalid.size()) - 1))];
    } else {
      out += pieces[static_cast<size_t>(
          rng->NextInt(0, static_cast<int64_t>(pieces.size()) - 1))];
    }
  }
  return out;
}

TEST(FusedSegmenterTest, RandomizedDifferentialBothLanguages) {
  for (const text::Language lang :
       {text::Language::kJa, text::Language::kDe}) {
    SCOPED_TRACE(text::LanguageName(lang));
    const std::vector<std::string> lexicon =
        lang == text::Language::kJa ? JaLexicon()
                                    : std::vector<std::string>{};
    const text::PosLexicon pos_lexicon = TestPosLexicon();
    const text::FusedSegmenter segmenter(lang, lexicon, pos_lexicon);
    // One scratch across all iterations: repeated random pieces land in
    // the sentence memo, so later iterations mix hit and miss paths.
    text::FusedSegmenter::Scratch scratch;
    Rng rng(lang == text::Language::kJa ? 111 : 222);
    for (int iter = 0; iter < 300; ++iter) {
      const bool allow_invalid = iter % 3 == 0;
      const std::string page = RandomPageText(&rng, lang, allow_invalid);
      SCOPED_TRACE("iter " + std::to_string(iter) + ": " + page);
      std::vector<text::LabeledSequence> fused;
      segmenter.Segment(page, &fused, &scratch);
      ExpectSequencesEqual(
          fused, ModularSegment(lang, lexicon, pos_lexicon, page));
    }
  }
}

TEST(FusedSegmenterTest, MemoGrowthKeepsResultsUnchanged) {
  // Push the sentence memo through several growth doublings (initial
  // capacity is 1024 slots) and verify an early sentence still comes
  // back byte-identical — now as a memo hit after every rehash.
  // The segmenter keeps a reference to the PoS lexicon, so it must
  // outlive the segmenter — a temporary here would dangle.
  const text::PosLexicon pos_lexicon;
  const text::FusedSegmenter segmenter(text::Language::kDe, {}, pos_lexicon);
  text::FusedSegmenter::Scratch scratch;

  std::vector<text::LabeledSequence> first;
  segmenter.Segment("sentinel sentence zero.", &first, &scratch);
  ASSERT_EQ(first.size(), 1u);

  std::vector<text::LabeledSequence> out;
  for (int i = 0; i < 3000; ++i) {
    out.clear();
    segmenter.Segment("filler nummer " + std::to_string(i) + ".", &out,
                      &scratch);
  }
  ASSERT_GT(scratch.cache.size(), 2048u);

  std::vector<text::LabeledSequence> again;
  segmenter.Segment("sentinel sentence zero.", &again, &scratch);
  ExpectSequencesEqual(again, first);
}

}  // namespace
}  // namespace pae
