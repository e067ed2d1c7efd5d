#include "support/oracle.h"

#include <memory>

#include "text/sentence.h"
#include "util/thread_pool.h"

namespace pae::oracle {

namespace {
void FindAllRec(const html::HtmlNode& node, std::string_view tag,
                std::vector<const html::HtmlNode*>* out) {
  if (node.type == html::HtmlNode::Type::kElement && node.tag == tag) {
    out->push_back(&node);
  }
  for (const auto& child : node.children) FindAllRec(*child, tag, out);
}
}  // namespace

std::vector<const html::HtmlNode*> FindAll(const html::HtmlNode& node,
                                           std::string_view tag) {
  std::vector<const html::HtmlNode*> out;
  FindAllRec(node, tag, &out);
  return out;
}

html::TableGrid ExtractGrid(const html::HtmlNode& table) {
  html::TableGrid grid;
  for (const html::HtmlNode* tr : FindAll(table, "tr")) {
    std::vector<std::string> row;
    for (const auto& child : tr->children) {
      if (child->IsElement("td") || child->IsElement("th")) {
        row.push_back(html::CollapseCellText(html::ExtractText(*child)));
      }
    }
    if (!row.empty()) grid.push_back(std::move(row));
  }
  return grid;
}

std::vector<html::DictionaryTable> ExtractDictionaryTables(
    const html::HtmlNode& root) {
  std::vector<html::DictionaryTable> out;
  for (const html::HtmlNode* table : FindAll(root, "table")) {
    html::DictionaryTable dict;
    if (html::GridToDictionary(ExtractGrid(*table), &dict)) {
      out.push_back(std::move(dict));
    }
  }
  return out;
}

std::vector<text::LabeledSequence> SegmentText(
    std::string_view text, const text::Tokenizer& tokenizer,
    const text::PosTagger& pos_tagger) {
  std::vector<text::LabeledSequence> out;
  int sentence_index = 0;
  for (const std::string& sentence : text::SplitSentences(text)) {
    text::LabeledSequence seq;
    seq.tokens = tokenizer.Tokenize(sentence);
    if (seq.tokens.empty()) continue;
    seq.pos = pos_tagger.Tag(seq.tokens);
    seq.sentence_index = sentence_index++;
    out.push_back(std::move(seq));
  }
  return out;
}

std::vector<text::LabeledSequence> SegmentHtml(
    std::string_view html, const text::Tokenizer& tokenizer,
    const text::PosTagger& pos_tagger) {
  const std::unique_ptr<html::HtmlNode> dom = html::ParseHtml(html);
  return SegmentText(html::ExtractText(*dom), tokenizer, pos_tagger);
}

core::ProcessedCorpus ProcessCorpus(const core::Corpus& corpus, int threads) {
  core::ProcessedCorpus out;
  out.category = corpus.category;
  out.language = corpus.language;
  out.query_log = corpus.query_log;
  out.tokenizer = text::MakeTokenizer(corpus.language,
                                      corpus.tokenizer_lexicon);
  out.pos_tagger = std::make_unique<text::PosTagger>(corpus.language,
                                                     corpus.pos_lexicon);
  out.pages.resize(corpus.pages.size());

  // Pages are independent: each worker parses into its own slot. The
  // tokenizer and PoS tagger are shared but stateless after
  // construction, so concurrent reads are safe.
  util::ThreadPool pool(util::ThreadPool::ResolveThreads(threads));
  pool.ParallelFor(0, corpus.pages.size(), 1, [&](size_t p) {
    const core::ProductPage& page = corpus.pages[p];
    core::ProcessedPage& processed = out.pages[p];
    processed.product_id = page.product_id;
    const std::unique_ptr<html::HtmlNode> dom = html::ParseHtml(page.html);
    processed.tables = ExtractDictionaryTables(*dom);
    processed.sentences =
        SegmentText(html::ExtractText(*dom), *out.tokenizer, *out.pos_tagger);
  });
  return out;
}

std::string RandomHtmlSoup(Rng* rng) {
  static const std::vector<std::string> kTokens = {
      "<div>",     "</div>",  "<p>",        "</p>",      "<span>",
      "</span>",   "<b>",     "</b>",       "<table>",   "</table>",
      "<tr>",      "</tr>",   "<td>",       "</td>",     "<th>",
      "</th>",     "<br>",    "<br/>",      "<hr>",      "<img src=\"x\">",
      "<div/>",    "</li>",   "<!-- c -->", "<!doctype html>",
      "<script>var t = '<td>';</script>",   "<style>b{}</style>",
      "<div title=\"a > b\">",              "<>",
  };
  static const std::vector<std::string> kText = {
      "word",  "  ",     "\n",      "123",      "a&amp;b", "&lt;x&gt;",
      "&#65;", "&bad;",  "光学",    "ズーム",   "<",       ">",
      "価格",  "10,000", "k v",     "&#x42;",
  };
  std::string out;
  const int pieces = static_cast<int>(rng->NextInt(1, 60));
  for (int i = 0; i < pieces; ++i) {
    if (rng->Bernoulli(0.55)) {
      out += kTokens[static_cast<size_t>(
          rng->NextInt(0, static_cast<int64_t>(kTokens.size()) - 1))];
    } else {
      out += kText[static_cast<size_t>(
          rng->NextInt(0, static_cast<int64_t>(kText.size()) - 1))];
    }
  }
  // Occasionally end mid-tag — the scanner must not read past the end.
  if (rng->Bernoulli(0.1)) out += "<t";
  return out;
}

}  // namespace pae::oracle
