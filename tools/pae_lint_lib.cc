#include "pae_lint_lib.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

namespace pae::lint {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::vector<std::string_view> SplitLines(std::string_view s) {
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start <= s.size()) {
    size_t nl = s.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.push_back(s.substr(start));
      break;
    }
    lines.push_back(s.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// True when `text[at]` begins token `tok` (identifier boundaries on
/// both sides).
bool TokenAt(std::string_view text, size_t at, std::string_view tok) {
  if (at + tok.size() > text.size()) return false;
  if (text.substr(at, tok.size()) != tok) return false;
  if (at > 0 && IsIdentChar(text[at - 1])) return false;
  const size_t end = at + tok.size();
  if (end < text.size() && IsIdentChar(text[end])) return false;
  return true;
}

/// Calls `fn(line_number)` for every token occurrence of `tok`.
template <typename Fn>
void ForEachToken(std::string_view text, std::string_view tok, Fn&& fn) {
  int line = 1;
  for (size_t i = 0; i + tok.size() <= text.size(); ++i) {
    if (text[i] == '\n') {
      ++line;
      continue;
    }
    if (TokenAt(text, i, tok)) fn(line, i);
  }
}

size_t SkipSpaces(std::string_view s, size_t i) {
  while (i < s.size() &&
         (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) {
    ++i;
  }
  return i;
}

/// Index of the last non-whitespace character before `i`, or npos.
size_t PrevNonSpace(std::string_view s, size_t i) {
  while (i > 0) {
    --i;
    if (s[i] != ' ' && s[i] != '\t' && s[i] != '\n' && s[i] != '\r') {
      return i;
    }
  }
  return std::string_view::npos;
}

/// True when the token starting at `i` is reached via `.` or `->`
/// (i.e. it is a member call on some object).
bool IsMemberAccess(std::string_view s, size_t i) {
  const size_t p = PrevNonSpace(s, i);
  if (p == std::string_view::npos) return false;
  if (s[p] == '.') return true;
  return s[p] == '>' && p > 0 && s[p - 1] == '-';
}

/// Given `open` at a '(' in `s`, returns the index one past the
/// matching ')' and stores the argument text in `*args`. Returns npos
/// when the parenthesis never closes.
size_t MatchParen(std::string_view s, size_t open, std::string_view* args) {
  int depth = 0;
  for (size_t i = open; i < s.size(); ++i) {
    if (s[i] == '(') {
      ++depth;
    } else if (s[i] == ')') {
      --depth;
      if (depth == 0) {
        *args = s.substr(open + 1, i - open - 1);
        return i + 1;
      }
    }
  }
  return std::string_view::npos;
}

}  // namespace

std::string Violation::ToString() const {
  std::ostringstream os;
  os << file << ":" << line << ": [" << rule << "] " << message;
  return os.str();
}

std::string StripCommentsAndStrings(std::string_view content) {
  std::string out(content);
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kCode;
  std::string raw_delim;  // ")delim" terminator of the raw string
  for (size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = (i + 1 < content.size()) ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"' && i > 0 && content[i - 1] == 'R') {
          // R"delim( ... )delim"
          state = State::kRawString;
          raw_delim = ")";
          for (size_t j = i + 1; j < content.size() && content[j] != '(';
               ++j) {
            raw_delim.push_back(content[j]);
          }
          raw_delim.push_back('"');
          out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;
          out[i] = ' ';
        } else if (c == '\'' && !(i > 0 && IsIdentChar(content[i - 1]))) {
          // Identifier boundary guard keeps digit separators (1'000'000)
          // from opening a bogus char literal.
          state = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n' && i + 1 < content.size()) out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n' && i + 1 < content.size()) out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRawString:
        if (content.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (size_t j = 0; j < raw_delim.size(); ++j) out[i + j] = ' ';
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::string ExpectedIncludeGuard(std::string_view path) {
  std::string_view rel = path;
  if (StartsWith(rel, "src/")) rel.remove_prefix(4);
  if (EndsWith(rel, ".h")) rel.remove_suffix(2);
  std::string guard = "PAE_";
  for (char c : rel) {
    guard.push_back(
        std::isalnum(static_cast<unsigned char>(c))
            ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
            : '_');
  }
  guard += "_H_";
  return guard;
}

std::vector<Violation> LintFile(std::string_view path,
                                std::string_view content) {
  std::vector<Violation> out;
  const std::string stripped = StripCommentsAndStrings(content);
  auto add = [&](int line, const char* rule, std::string message) {
    out.push_back(Violation{std::string(path), line, rule,
                            std::move(message)});
  };

  // --- hot-path-string-map: string-keyed hash maps in tagging hot
  // paths; FlatStringInterner gives dense ids + string_view lookup.
  if (StartsWith(path, "src/crf/") || StartsWith(path, "src/text/")) {
    constexpr std::string_view kMapTok = "unordered_map";
    ForEachToken(stripped, kMapTok, [&](int line, size_t i) {
      size_t j = SkipSpaces(stripped, i + kMapTok.size());
      if (j >= stripped.size() || stripped[j] != '<') return;
      j = SkipSpaces(stripped, j + 1);
      size_t key_end = j;
      if (TokenAt(stripped, j, "std")) {
        if (stripped.compare(j, 5, "std::") == 0) j += 5;
      }
      if (!TokenAt(stripped, j, "string")) return;
      key_end = j + 6;
      if (SkipSpaces(stripped, key_end) < stripped.size() &&
          stripped[SkipSpaces(stripped, key_end)] != ',') {
        return;  // e.g. unordered_map<std::string_view never parses here
      }
      add(line, "hot-path-string-map",
          "std::unordered_map<std::string, ...> on a tagging hot path; "
          "use util::FlatStringInterner (dense ids, string_view lookup)");
    });
  }

  // --- raw-random: all randomness must flow through the seeded
  // pae::Rng so every experiment reproduces bit-for-bit.
  if (path != "src/util/rng.h") {
    for (const char* tok : {"rand", "srand"}) {
      ForEachToken(stripped, tok, [&](int line, size_t i) {
        const size_t j = SkipSpaces(stripped, i + std::string_view(tok).size());
        if (j < stripped.size() && stripped[j] == '(') {
          add(line, "raw-random",
              std::string(tok) +
                  "() bypasses the seeded pae::Rng; experiments must "
                  "reproduce bit-for-bit (util/rng.h)");
        }
      });
    }
    ForEachToken(stripped, "random_device", [&](int line, size_t) {
      add(line, "raw-random",
          "std::random_device is non-deterministic; derive streams from "
          "the seeded pae::Rng (util/rng.h)");
    });
  }

  // --- raw-stdio: library code logs through PAE_LOG so severity
  // filtering and benchmark quieting keep working. Scoped to src/: the
  // CLI front-ends under tools/ and bench/ write their output (tables,
  // JSON, usage) to stdout/stderr by design.
  if (StartsWith(path, "src/") && path != "src/util/logging.cc") {
    for (const char* tok : {"cout", "cerr"}) {
      ForEachToken(stripped, tok, [&](int line, size_t i) {
        if (i < 2 || stripped.compare(i - 2, 2, "::") != 0) return;
        add(line, "raw-stdio",
            std::string("std::") + tok +
                " outside util/logging.cc; use PAE_LOG(...) so severity "
                "filtering applies");
      });
    }
  }

  // --- naked-assert: assert() vanishes under NDEBUG without a trace;
  // PAE_DCHECK logs file:line and stays on in sanitizer builds.
  ForEachToken(stripped, "assert", [&](int line, size_t i) {
    const size_t j = SkipSpaces(stripped, i + 6);
    if (j < stripped.size() && stripped[j] == '(') {
      add(line, "naked-assert",
          "naked assert(); use PAE_DCHECK (logs file:line via "
          "util/logging, on in Debug and sanitizer builds)");
    }
  });

  // --- include-guard: canonical PAE_<PATH>_H_ guards.
  if (EndsWith(path, ".h")) {
    const std::string expected = ExpectedIncludeGuard(path);
    bool found_ifndef = false;
    int line_no = 0;
    for (std::string_view line : SplitLines(stripped)) {
      ++line_no;
      size_t i = SkipSpaces(line, 0);
      if (i >= line.size() || line[i] != '#') continue;
      i = SkipSpaces(line, i + 1);
      if (line.compare(i, 6, "ifndef") != 0) continue;
      found_ifndef = true;
      i = SkipSpaces(line, i + 6);
      size_t end = i;
      while (end < line.size() && IsIdentChar(line[end])) ++end;
      const std::string_view guard = line.substr(i, end - i);
      if (guard != expected) {
        add(line_no, "include-guard",
            "include guard '" + std::string(guard) + "' should be '" +
                expected + "'");
      }
      break;  // only the first #ifndef is the guard
    }
    if (!found_ifndef) {
      add(1, "include-guard",
          "header has no #ifndef include guard (expected '" + expected +
              "')");
    }
  }

  // --- float-accumulator: scalar float reductions drift; math/vec.h
  // accumulates in double and narrows once.
  {
    static const std::regex decl_re(
        R"(\bfloat\s+([A-Za-z_]\w*)\s*=\s*0(\.\d*)?f?\s*;)");
    static constexpr int kWindow = 15;
    const std::vector<std::string_view> lines = SplitLines(stripped);
    for (size_t ln = 0; ln < lines.size(); ++ln) {
      std::cmatch m;
      const std::string_view line = lines[ln];
      if (!std::regex_search(line.data(), line.data() + line.size(), m,
                             decl_re)) {
        continue;
      }
      const std::string ident = m[1].str();
      const std::regex accum_re("\\b" + ident + R"(\s*\+=)");
      const size_t hi = std::min(lines.size(), ln + 1 + kWindow);
      for (size_t k = ln + 1; k < hi; ++k) {
        if (std::regex_search(lines[k].data(),
                              lines[k].data() + lines[k].size(),
                              accum_re)) {
          add(static_cast<int>(ln + 1), "float-accumulator",
              "scalar float accumulator '" + ident +
                  "'; accumulate in double and narrow once "
                  "(see math/vec.h)");
          break;
        }
      }
    }
  }

  // --- hand-rolled-kernel: dense dot/axpy loops outside the kernel
  // layer; math/kernels.h dispatches them to SIMD with results that are
  // bit-identical across ISAs. A private loop forks the numerics.
  if (!StartsWith(path, "src/math/")) {
    // The repo's float-dot idiom: acc += static_cast<double>(a[i])*b[i].
    static const std::regex dot_re(
        R"(\+=\s*static_cast<\s*double\s*>\s*\(\s*[A-Za-z_]\w*\s*\[[^\]]*\]\s*\)\s*\*\s*[A-Za-z_]\w*\s*\[[^\]]*\])");
    // The axpy idiom: y[i] += alpha * x[i].
    static const std::regex axpy_re(
        R"([A-Za-z_]\w*\s*\[[^\]]*\]\s*\+=\s*[A-Za-z_]\w*\s*\*\s*[A-Za-z_]\w*\s*\[[^\]]*\])");
    int line_no = 0;
    for (std::string_view line : SplitLines(stripped)) {
      ++line_no;
      if (std::regex_search(line.data(), line.data() + line.size(),
                            dot_re)) {
        add(line_no, "hand-rolled-kernel",
            "hand-rolled dot-product loop; use math::kernels::Dot / "
            "MatVec (SIMD-dispatched, bit-identical across ISAs)");
      } else if (std::regex_search(line.data(), line.data() + line.size(),
                                   axpy_re)) {
        add(line_no, "hand-rolled-kernel",
            "hand-rolled axpy loop; use math::kernels::Axpy / AddOuter "
            "(SIMD-dispatched, bit-identical across ISAs)");
      }
    }
  }

  // --- raw-mutex: only the annotated pae::util wrappers are visible to
  // Clang's -Wthread-safety analysis; raw std synchronization types
  // escape it entirely. src/util/ hosts the wrappers themselves.
  if (!StartsWith(path, "src/util/")) {
    for (const char* tok :
         {"mutex", "lock_guard", "unique_lock", "condition_variable"}) {
      ForEachToken(stripped, tok, [&](int line, size_t i) {
        if (i < 5 || stripped.compare(i - 5, 5, "std::") != 0) return;
        add(line, "raw-mutex",
            std::string("std::") + tok +
                " is invisible to -Wthread-safety; use util::Mutex / "
                "MutexLock / CondVar (util/mutex.h)");
      });
    }
  }

  // --- single-writer-interner: FlatStringInterner::Intern and
  // Vocab::GetOrAdd mutate single-writer open-addressing tables; called
  // from a ParallelFor body they race. Workers write per-index slots
  // and the interning happens serially after the join.
  {
    constexpr std::string_view kLoopTok = "ParallelFor";
    ForEachToken(stripped, kLoopTok, [&](int line, size_t i) {
      const size_t open = SkipSpaces(stripped, i + kLoopTok.size());
      if (open >= stripped.size() || stripped[open] != '(') return;
      std::string_view args;
      if (MatchParen(stripped, open, &args) == std::string_view::npos) {
        return;
      }
      for (const char* tok : {"Intern", "GetOrAdd"}) {
        ForEachToken(args, tok, [&](int rel_line, size_t j) {
          if (!IsMemberAccess(args, j)) return;
          const size_t call =
              SkipSpaces(args, j + std::string_view(tok).size());
          if (call >= args.size() || args[call] != '(') return;
          add(line + rel_line - 1, "single-writer-interner",
              std::string(".") + tok +
                  "() inside a ParallelFor body: FlatStringInterner and "
                  "Vocab are single-writer; write per-index results in "
                  "the loop and intern serially after the join");
        });
      }
    });
  }

  // --- atomic-memory-order: the implicit seq_cst default hides the
  // ordering decision. Spelling the order states the contract and makes
  // deliberate relaxations greppable.
  {
    for (const char* tok :
         {"load", "store", "fetch_add", "fetch_sub", "fetch_and",
          "fetch_or", "fetch_xor", "exchange", "compare_exchange_strong",
          "compare_exchange_weak"}) {
      ForEachToken(stripped, tok, [&](int line, size_t i) {
        if (!IsMemberAccess(stripped, i)) return;
        const size_t open =
            SkipSpaces(stripped, i + std::string_view(tok).size());
        if (open >= stripped.size() || stripped[open] != '(') return;
        std::string_view args;
        if (MatchParen(stripped, open, &args) == std::string_view::npos) {
          return;
        }
        if (args.find("memory_order") != std::string_view::npos) return;
        add(line, "atomic-memory-order",
            std::string(".") + tok +
                "() without an explicit std::memory_order; state the "
                "ordering contract (seq_cst included) at the call site");
      });
    }
  }

  // --- detached-thread: a detached thread outlives its state's owner
  // and turns shutdown into a race; every thread in this tree joins.
  ForEachToken(stripped, "detach", [&](int line, size_t i) {
    if (!IsMemberAccess(stripped, i)) return;
    const size_t open = SkipSpaces(stripped, i + 6);
    if (open >= stripped.size() || stripped[open] != '(') return;
    add(line, "detached-thread",
        ".detach() orphans the thread past its owner's lifetime; keep "
        "the handle and join it on shutdown");
  });

  // --- unguarded-mutable: `mutable` means "written under const", which
  // on shared objects means written concurrently. Atomics and Mutexes
  // synchronize themselves; anything else must name its lock in a
  // PAE_GUARDED_BY so the analysis can check it. A `mutable` right
  // after a lambda parameter list is the (unrelated) lambda qualifier.
  ForEachToken(stripped, "mutable", [&](int line, size_t i) {
    const size_t p = PrevNonSpace(stripped, i);
    if (p != std::string_view::npos && stripped[p] == ')') return;
    const size_t semi = stripped.find(';', i);
    if (semi == std::string::npos) return;
    const std::string_view decl =
        std::string_view(stripped).substr(i, semi - i);
    if (decl.find("PAE_GUARDED_BY") != std::string_view::npos) return;
    if (decl.find("atomic") != std::string_view::npos) return;
    if (decl.find("Mutex") != std::string_view::npos) return;
    add(line, "unguarded-mutable",
        "mutable member is neither atomic, nor a Mutex, nor "
        "PAE_GUARDED_BY(some mutex); name the lock that protects it");
  });

  // --- mmap-reinterpret-cast: reinterpreting mapped bytes is the whole
  // job of exactly two files; everywhere else the cast is an aliasing
  // hazard that belongs behind a typed helper or std::memcpy.
  if (path != "src/core/model_artifact.cc" &&
      path != "src/util/mmap_file.cc") {
    ForEachToken(stripped, "reinterpret_cast", [&](int line, size_t) {
      add(line, "mmap-reinterpret-cast",
          "reinterpret_cast outside core/model_artifact.cc and "
          "util/mmap_file.cc; use a typed accessor or std::memcpy");
    });
  }

  std::sort(out.begin(), out.end(), [](const Violation& a,
                                       const Violation& b) {
    return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
  });
  return out;
}

std::vector<AllowlistEntry> ParseAllowlist(std::string_view content) {
  std::vector<AllowlistEntry> entries;
  for (std::string_view line : SplitLines(content)) {
    size_t i = SkipSpaces(line, 0);
    if (i >= line.size() || line[i] == '#') continue;
    size_t sp = line.find_first_of(" \t", i);
    if (sp == std::string_view::npos) continue;
    AllowlistEntry e;
    e.rule = std::string(line.substr(i, sp - i));
    size_t j = SkipSpaces(line, sp);
    size_t end = line.find_first_of(" \t#", j);
    if (end == std::string_view::npos) end = line.size();
    e.file = std::string(line.substr(j, end - j));
    if (!e.file.empty()) entries.push_back(std::move(e));
  }
  return entries;
}

std::vector<Violation> ApplyAllowlist(
    std::vector<Violation> violations,
    const std::vector<AllowlistEntry>& allowlist) {
  violations.erase(
      std::remove_if(violations.begin(), violations.end(),
                     [&](const Violation& v) {
                       return std::any_of(
                           allowlist.begin(), allowlist.end(),
                           [&](const AllowlistEntry& e) {
                             return e.rule == v.rule && e.file == v.file;
                           });
                     }),
      violations.end());
  return violations;
}

std::vector<AllowlistEntry> StaleAllowlistEntries(
    const std::vector<Violation>& violations,
    const std::vector<AllowlistEntry>& allowlist,
    const std::vector<std::string>& linted_trees) {
  std::vector<AllowlistEntry> stale;
  for (const AllowlistEntry& e : allowlist) {
    const bool linted = std::any_of(
        linted_trees.begin(), linted_trees.end(), [&](const std::string& t) {
          return e.file.size() > t.size() && e.file.rfind(t, 0) == 0 &&
                 e.file[t.size()] == '/';
        });
    const bool used = std::any_of(
        violations.begin(), violations.end(), [&](const Violation& v) {
          return v.rule == e.rule && v.file == e.file;
        });
    if (linted && !used) stale.push_back(e);
  }
  return stale;
}

std::vector<Violation> LintTree(const std::string& root_dir) {
  namespace fs = std::filesystem;
  const fs::path root(root_dir);
  const std::string prefix = root.filename().string();
  std::vector<std::pair<std::string, fs::path>> files;  // label -> path
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    const std::string label =
        prefix + "/" + fs::relative(entry.path(), root).generic_string();
    files.emplace_back(label, entry.path());
  }
  std::sort(files.begin(), files.end());

  std::vector<Violation> out;
  for (const auto& [label, file_path] : files) {
    std::ifstream in(file_path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::vector<Violation> file_violations = LintFile(label, buf.str());
    out.insert(out.end(), file_violations.begin(), file_violations.end());
  }
  return out;
}

}  // namespace pae::lint
