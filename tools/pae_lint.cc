// pae_lint: project-rule linter for the PAE tree.
//
// Usage: pae_lint [--allowlist FILE] [ROOT_DIR...]
//
// Scans every .h/.cc under each ROOT_DIR (default: src) for violations
// of the project rules documented in pae_lint_lib.h, prints each one as
// file:line: [rule] message, and exits non-zero if any remain after
// applying the allowlist or if an allowlist entry for a linted tree
// matches nothing. Registered as a ctest target so `ctest`
// catches regressions alongside the unit tests.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "pae_lint_lib.h"

int main(int argc, char** argv) {
  std::string allowlist_path;
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--allowlist" && i + 1 < argc) {
      allowlist_path = argv[++i];
    } else if (arg.rfind("--allowlist=", 0) == 0) {
      allowlist_path = arg.substr(12);
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: pae_lint [--allowlist FILE] [ROOT_DIR...]\n");
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) roots.push_back("src");

  std::vector<pae::lint::AllowlistEntry> allowlist;
  if (!allowlist_path.empty()) {
    std::ifstream in(allowlist_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "pae_lint: cannot read allowlist %s\n",
                   allowlist_path.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    allowlist = pae::lint::ParseAllowlist(buf.str());
  }

  std::vector<pae::lint::Violation> violations;
  for (const std::string& root : roots) {
    std::vector<pae::lint::Violation> v = pae::lint::LintTree(root);
    violations.insert(violations.end(), v.begin(), v.end());
  }
  // An allowlist entry that matches nothing is an error: the list only
  // shrinks, and a stale grandfather clause would silently re-admit the
  // violation it once covered.
  std::vector<std::string> linted_trees;
  for (const std::string& root : roots) {
    linted_trees.push_back(std::filesystem::path(root).filename().string());
  }
  const std::vector<pae::lint::AllowlistEntry> stale =
      pae::lint::StaleAllowlistEntries(violations, allowlist, linted_trees);
  for (const pae::lint::AllowlistEntry& e : stale) {
    std::fprintf(stderr,
                 "pae_lint: error: allowlist entry '%s %s' matched "
                 "nothing; remove it\n",
                 e.rule.c_str(), e.file.c_str());
  }

  const size_t before = violations.size();
  violations = pae::lint::ApplyAllowlist(violations, allowlist);

  for (const pae::lint::Violation& v : violations) {
    std::printf("%s\n", v.ToString().c_str());
  }
  if (!violations.empty() || !stale.empty()) {
    std::fprintf(stderr,
                 "pae_lint: %zu violation(s), %zu stale allowlist "
                 "entr%s\n",
                 violations.size(), stale.size(),
                 stale.size() == 1 ? "y" : "ies");
    return 1;
  }
  std::fprintf(stderr, "pae_lint: clean (%zu suppressed by allowlist)\n",
               before - violations.size());
  return 0;
}
