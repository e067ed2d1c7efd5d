#ifndef PAE_HTML_TABLE_EXTRACTOR_H_
#define PAE_HTML_TABLE_EXTRACTOR_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pae::html {

/// A spec table in "dictionary" form: one attribute-name / attribute-value
/// pair per entry, in document order.
struct DictionaryTable {
  std::vector<std::pair<std::string, std::string>> entries;
};

/// Cell grid of one <table> (rows of trimmed cell texts).
using TableGrid = std::vector<std::vector<std::string>>;

/// Normalizes one cell's extracted text: internal newlines/tabs/space
/// runs collapse to a single space, edges are trimmed. Shared by the
/// streaming scanner and the DOM grid oracle in tests/support.
std::string CollapseCellText(std::string_view raw);

/// Detects whether `grid` has dictionary structure — exactly 2 columns ×
/// n rows (key in column 0) or exactly 2 rows × n columns (key in row 0),
/// following the seed-extraction convention of §V-A — and converts it.
/// Returns false if the grid is not in dictionary form.
bool GridToDictionary(const TableGrid& grid, DictionaryTable* out);

}  // namespace pae::html

#endif  // PAE_HTML_TABLE_EXTRACTOR_H_
