#ifndef PAE_HTML_STREAM_SCANNER_H_
#define PAE_HTML_STREAM_SCANNER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "html/table_extractor.h"

namespace pae::html {

/// One-pass page scanner: produces the visible text and the dictionary
/// tables of a product page without materializing a DOM. This is the
/// hot path of streaming ingestion (core/ingest.h) — per page it saves
/// the node-tree allocation, the tag strings, and the two tree walks a
/// DOM front end pays (text, then tables).
///
/// Equivalence contract, enforced by tests/stream_scanner_test.cc with
/// a randomized differential against the DOM path: after Scan(html),
///   text()   is byte-identical to ExtractText(*ParseHtml(html)), and
///   tables() compares equal to the DOM table oracle
///            (tests/support: oracle::ExtractDictionaryTables).
/// The scanner replicates ParseHtml's tolerant behavior exactly:
/// unmatched close tags are ignored, unclosed elements close at end of
/// input, comments/doctype are skipped, script/style bodies are
/// dropped, and void/self-closing elements never take children.
class StreamScanner {
 public:
  void Scan(std::string_view html);

  /// Valid until the next Scan call.
  const std::string& text() const { return text_; }
  /// Mutable so callers can move the tables out; reset by Scan.
  std::vector<DictionaryTable>& tables() { return tables_; }

 private:
  /// One open element. `tag` keeps its capacity across pages (the stack
  /// is indexed by depth_ and never shrinks), so steady-state scanning
  /// does not allocate per element.
  struct Entry {
    std::string tag;
    bool block = false;
    int32_t table = -1;  // index into table_rows_ if this is a <table>
    int32_t row = -1;    // index into row_cells_ if this is a <tr>
    int32_t cell = -1;   // index into cells_ if this is a td/th cell
  };

  void AppendTextRun(std::string_view raw);
  /// '\n'-at-block-boundary rule of ExtractTextRec, applied to the page
  /// text and every open cell capture with per-sink emptiness checks.
  void BlockBreak();
  void OpenElement(std::string_view lower_tag, bool self_closing);
  /// Closes the innermost open element (cell finalize, table unwind,
  /// trailing block break).
  void CloseInnermost();
  void BuildTables();

  std::string text_;
  std::vector<DictionaryTable> tables_;

  std::vector<Entry> stack_;  // grows, never shrinks; depth_ is live size
  size_t depth_ = 0;
  std::vector<int32_t> active_tables_;  // stack of open table ids
  std::vector<int32_t> open_cells_;     // stack of open cell ids

  // Arena-style per-page builders, reused across Scan calls.
  std::vector<std::vector<int32_t>> table_rows_;  // table id -> row ids
  std::vector<std::vector<int32_t>> row_cells_;   // row id -> cell ids
  std::vector<std::string> cells_;                // cell id -> raw text
  size_t table_count_ = 0;
  size_t row_count_ = 0;
  size_t cell_count_ = 0;

  std::string tag_scratch_;
};

}  // namespace pae::html

#endif  // PAE_HTML_STREAM_SCANNER_H_
