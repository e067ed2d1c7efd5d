#include "html/table_extractor.h"

#include "util/strings.h"

namespace pae::html {

std::string CollapseCellText(std::string_view raw) {
  std::string collapsed;
  collapsed.reserve(raw.size());
  bool last_space = false;
  for (char c : raw) {
    if (c == '\n' || c == '\t' || c == ' ') {
      if (!last_space && !collapsed.empty()) collapsed.push_back(' ');
      last_space = true;
    } else {
      collapsed.push_back(c);
      last_space = false;
    }
  }
  return std::string(StripAsciiWhitespace(collapsed));
}

bool GridToDictionary(const TableGrid& grid, DictionaryTable* out) {
  out->entries.clear();
  if (grid.empty()) return false;

  // Case 1: n rows × 2 columns — key in column 0.
  bool two_cols = grid.size() >= 2;
  for (const auto& row : grid) {
    if (row.size() != 2) {
      two_cols = false;
      break;
    }
  }
  if (two_cols) {
    out->entries.reserve(grid.size());
    for (const auto& row : grid) {
      if (row[0].empty() || row[1].empty()) continue;
      out->entries.emplace_back(row[0], row[1]);
    }
    return !out->entries.empty();
  }

  // Case 2: 2 rows × n columns — key in row 0.
  if (grid.size() == 2 && grid[0].size() == grid[1].size() &&
      grid[0].size() >= 2) {
    out->entries.reserve(grid[0].size());
    for (size_t c = 0; c < grid[0].size(); ++c) {
      if (grid[0][c].empty() || grid[1][c].empty()) continue;
      out->entries.emplace_back(grid[0][c], grid[1][c]);
    }
    return !out->entries.empty();
  }
  return false;
}

}  // namespace pae::html
