// Tests for the pae_lint rule engine: every rule must fire on a fixture
// snippet that violates it and stay quiet on clean code, so the ctest
// `pae_lint` target is demonstrably enforcing something.

#include "pae_lint_lib.h"

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace pae::lint {
namespace {

bool HasRule(const std::vector<Violation>& vs, const std::string& rule) {
  return std::any_of(vs.begin(), vs.end(),
                     [&](const Violation& v) { return v.rule == rule; });
}

TEST(StripCommentsAndStrings, RemovesCommentsKeepsNewlines) {
  const std::string in =
      "int a; // trailing unordered_map<std::string, int>\n"
      "/* block\n"
      "   spanning */ int b;\n";
  const std::string out = StripCommentsAndStrings(in);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  EXPECT_EQ(out.find("unordered_map"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
}

TEST(StripCommentsAndStrings, RemovesStringAndCharLiterals) {
  const std::string in =
      "auto s = \"std::cout << rand()\";\n"
      "char c = 'x';\n"
      "auto r = R\"(assert(true))\";\n";
  const std::string out = StripCommentsAndStrings(in);
  EXPECT_EQ(out.find("cout"), std::string::npos);
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_EQ(out.find("assert"), std::string::npos);
  EXPECT_EQ(out.find('x'), std::string::npos);
}

TEST(StripCommentsAndStrings, EscapedQuoteStaysInString) {
  const std::string out =
      StripCommentsAndStrings("auto s = \"a\\\"b\"; int cout_like;\n");
  EXPECT_NE(out.find("cout_like"), std::string::npos);
  EXPECT_EQ(out.find("a\\\"b"), std::string::npos);
}

TEST(StripCommentsAndStrings, DigitSeparatorIsNotCharLiteral) {
  const std::string out =
      StripCommentsAndStrings("int n = 1'000'000; std::cerr << n;\n");
  // If 1'000'000 opened a char literal the std::cerr would be eaten.
  EXPECT_NE(out.find("std::cerr"), std::string::npos);
}

TEST(ExpectedIncludeGuard, CanonicalForm) {
  EXPECT_EQ(ExpectedIncludeGuard("src/crf/crf_model.h"),
            "PAE_CRF_CRF_MODEL_H_");
  EXPECT_EQ(ExpectedIncludeGuard("src/util/logging.h"),
            "PAE_UTIL_LOGGING_H_");
  EXPECT_EQ(ExpectedIncludeGuard("src/embed/word2vec.h"),
            "PAE_EMBED_WORD2VEC_H_");
  EXPECT_EQ(ExpectedIncludeGuard("tools/pae_lint_lib.h"),
            "PAE_TOOLS_PAE_LINT_LIB_H_");
}

// ---------------------------------------------------------------------
// Rule: hot-path-string-map

TEST(LintFile, FlagsStringMapInCrf) {
  const std::string snippet =
      "#include <unordered_map>\n"
      "std::unordered_map<std::string, int> counts;\n";
  EXPECT_TRUE(HasRule(LintFile("src/crf/foo.cc", snippet),
                      "hot-path-string-map"));
  EXPECT_TRUE(HasRule(LintFile("src/text/foo.cc", snippet),
                      "hot-path-string-map"));
}

TEST(LintFile, StringMapAllowedOutsideHotPaths) {
  const std::string snippet =
      "std::unordered_map<std::string, int> counts;\n";
  EXPECT_FALSE(HasRule(LintFile("src/util/foo.cc", snippet),
                       "hot-path-string-map"));
}

TEST(LintFile, IntKeyedMapIsFine) {
  const std::string snippet = "std::unordered_map<int, double> m;\n";
  EXPECT_FALSE(HasRule(LintFile("src/crf/foo.cc", snippet),
                       "hot-path-string-map"));
}

TEST(LintFile, StringViewKeyedMapIsFine) {
  const std::string snippet =
      "std::unordered_map<std::string_view, int> m;\n";
  EXPECT_FALSE(HasRule(LintFile("src/crf/foo.cc", snippet),
                       "hot-path-string-map"));
}

TEST(LintFile, StringMapInCommentIsFine) {
  const std::string snippet =
      "// faster than std::unordered_map<std::string, int> here\n"
      "int x;\n";
  EXPECT_FALSE(HasRule(LintFile("src/crf/foo.cc", snippet),
                       "hot-path-string-map"));
}

// ---------------------------------------------------------------------
// Rule: raw-random

TEST(LintFile, FlagsRand) {
  EXPECT_TRUE(HasRule(LintFile("src/crf/foo.cc", "int r = rand();\n"),
                      "raw-random"));
  EXPECT_TRUE(
      HasRule(LintFile("src/crf/foo.cc", "int r = std::rand();\n"),
              "raw-random"));
  EXPECT_TRUE(HasRule(LintFile("src/crf/foo.cc", "srand(42);\n"),
                      "raw-random"));
}

TEST(LintFile, FlagsRandomDevice) {
  EXPECT_TRUE(HasRule(
      LintFile("src/embed/foo.cc", "std::random_device rd;\n"),
      "raw-random"));
}

TEST(LintFile, RngHeaderIsExempt) {
  EXPECT_FALSE(HasRule(
      LintFile("src/util/rng.h",
               "#ifndef PAE_UTIL_RNG_H_\n#define PAE_UTIL_RNG_H_\n"
               "std::random_device rd;\n#endif\n"),
      "raw-random"));
}

TEST(LintFile, RandSubstringIsFine) {
  // "operand" and "randomize_order" contain 'rand' but are not calls.
  const std::string snippet =
      "int operand(int x);\nbool randomize_order = false;\n";
  EXPECT_FALSE(HasRule(LintFile("src/crf/foo.cc", snippet), "raw-random"));
}

// ---------------------------------------------------------------------
// Rule: raw-stdio

TEST(LintFile, FlagsCoutCerr) {
  EXPECT_TRUE(HasRule(
      LintFile("src/crf/foo.cc", "std::cout << \"hi\\n\";\n"),
      "raw-stdio"));
  EXPECT_TRUE(HasRule(LintFile("src/crf/foo.cc", "std::cerr << x;\n"),
                      "raw-stdio"));
}

TEST(LintFile, LoggingCcIsExempt) {
  EXPECT_FALSE(HasRule(
      LintFile("src/util/logging.cc", "std::cerr << msg;\n"),
      "raw-stdio"));
}

TEST(LintFile, CliFrontEndsMayUseStdio) {
  // tools/ and bench/ print their output (tables, JSON, usage) to
  // stdout by design; the rule polices library code under src/ only.
  EXPECT_FALSE(HasRule(
      LintFile("tools/pae_extract.cc", "std::cout << report;\n"),
      "raw-stdio"));
  EXPECT_FALSE(HasRule(
      LintFile("bench/table23_runner.cc", "std::cerr << usage;\n"),
      "raw-stdio"));
}

// ---------------------------------------------------------------------
// Rule: naked-assert

TEST(LintFile, FlagsNakedAssert) {
  EXPECT_TRUE(HasRule(
      LintFile("src/crf/foo.cc", "#include <cassert>\nassert(x > 0);\n"),
      "naked-assert"));
}

TEST(LintFile, StaticAssertIsFine) {
  EXPECT_FALSE(HasRule(
      LintFile("src/crf/foo.cc", "static_assert(sizeof(int) == 4);\n"),
      "naked-assert"));
}

TEST(LintFile, DcheckIsFine) {
  EXPECT_FALSE(HasRule(
      LintFile("src/crf/foo.cc", "PAE_DCHECK(x > 0);\n"), "naked-assert"));
}

// ---------------------------------------------------------------------
// Rule: include-guard

TEST(LintFile, FlagsWrongIncludeGuard) {
  const std::string snippet =
      "#ifndef FOO_H\n#define FOO_H\n#endif  // FOO_H\n";
  const std::vector<Violation> vs = LintFile("src/crf/foo.h", snippet);
  ASSERT_TRUE(HasRule(vs, "include-guard"));
  bool mentions_expected = false;
  for (const Violation& v : vs) {
    if (v.message.find("PAE_CRF_FOO_H_") != std::string::npos) {
      mentions_expected = true;
    }
  }
  EXPECT_TRUE(mentions_expected);
}

TEST(LintFile, FlagsMissingIncludeGuard) {
  EXPECT_TRUE(
      HasRule(LintFile("src/crf/foo.h", "int x;\n"), "include-guard"));
}

TEST(LintFile, CorrectGuardIsFine) {
  const std::string snippet =
      "#ifndef PAE_CRF_FOO_H_\n#define PAE_CRF_FOO_H_\n"
      "#endif  // PAE_CRF_FOO_H_\n";
  EXPECT_FALSE(
      HasRule(LintFile("src/crf/foo.h", snippet), "include-guard"));
}

TEST(LintFile, GuardRuleIgnoresCcFiles) {
  EXPECT_FALSE(
      HasRule(LintFile("src/crf/foo.cc", "int x;\n"), "include-guard"));
}

// ---------------------------------------------------------------------
// Rule: float-accumulator

TEST(LintFile, FlagsFloatAccumulator) {
  const std::string snippet =
      "float sum = 0.0f;\n"
      "for (float v : xs) {\n"
      "  sum += v;\n"
      "}\n";
  EXPECT_TRUE(
      HasRule(LintFile("src/crf/foo.cc", snippet), "float-accumulator"));
}

TEST(LintFile, DoubleAccumulatorIsFine) {
  const std::string snippet =
      "double sum = 0.0;\n"
      "for (float v : xs) sum += v;\n";
  EXPECT_FALSE(
      HasRule(LintFile("src/crf/foo.cc", snippet), "float-accumulator"));
}

TEST(LintFile, FloatWithoutAccumulationIsFine) {
  const std::string snippet =
      "float lr = 0.0f;\n"
      "lr = ComputeRate();\n";
  EXPECT_FALSE(
      HasRule(LintFile("src/crf/foo.cc", snippet), "float-accumulator"));
}

TEST(LintFile, FarAwayAccumulationIsOutsideWindow) {
  std::string snippet = "float sum = 0.0f;\n";
  for (int i = 0; i < 30; ++i) snippet += "Unrelated();\n";
  snippet += "sum += 1.0f;\n";
  EXPECT_FALSE(
      HasRule(LintFile("src/crf/foo.cc", snippet), "float-accumulator"));
}

// ---------------------------------------------------------------------
// Rule: hand-rolled-kernel

TEST(LintFile, FlagsHandRolledDot) {
  const std::string snippet =
      "double s = 0;\n"
      "for (size_t i = 0; i < n; ++i) {\n"
      "  s += static_cast<double>(a[i]) * b[i];\n"
      "}\n";
  const std::vector<Violation> vs = LintFile("src/lstm/foo.cc", snippet);
  ASSERT_TRUE(HasRule(vs, "hand-rolled-kernel"));
  EXPECT_NE(vs[0].message.find("Dot"), std::string::npos);
}

TEST(LintFile, FlagsHandRolledAxpy) {
  const std::string snippet =
      "for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];\n";
  EXPECT_TRUE(HasRule(LintFile("src/embed/foo.cc", snippet),
                      "hand-rolled-kernel"));
}

TEST(LintFile, KernelLayerItselfIsExempt) {
  const std::string snippet =
      "double s = 0;\n"
      "s += static_cast<double>(a[i]) * b[i];\n"
      "y[i] += alpha * x[i];\n";
  EXPECT_FALSE(HasRule(LintFile("src/math/kernels.cc", snippet),
                       "hand-rolled-kernel"));
}

TEST(LintFile, ElementwiseAdditionIsNotAKernelLoop) {
  // No product of two indexed operands: plain accumulation, elementwise
  // sums and scalar updates stay legal outside src/math/.
  const std::string snippet =
      "b[r] += dpre[r];\n"
      "mean[k] += row[k];\n"
      "s += w[i] * x[i];\n";  // double path: no static_cast idiom
  EXPECT_FALSE(HasRule(LintFile("src/crf/foo.cc", snippet),
                       "hand-rolled-kernel"));
}

// ---------------------------------------------------------------------
// Rule: raw-mutex

TEST(LintFile, FlagsRawMutexOutsideUtil) {
  EXPECT_TRUE(HasRule(
      LintFile("src/serve/foo.cc", "std::mutex mu;\n"), "raw-mutex"));
  EXPECT_TRUE(HasRule(
      LintFile("src/crf/foo.cc",
               "std::lock_guard<std::mutex> lock(mu);\n"),
      "raw-mutex"));
  EXPECT_TRUE(HasRule(
      LintFile("tests/foo_test.cc",
               "std::unique_lock<std::mutex> lock(mu);\n"),
      "raw-mutex"));
  EXPECT_TRUE(HasRule(
      LintFile("src/serve/foo.cc", "std::condition_variable cv;\n"),
      "raw-mutex"));
}

TEST(LintFile, WrapperImplementationIsExempt) {
  EXPECT_FALSE(HasRule(
      LintFile("src/util/mutex.h", "std::mutex mu_;\n"), "raw-mutex"));
}

TEST(LintFile, AnnotatedWrapperIsFine) {
  const std::string snippet =
      "util::Mutex mu_;\n"
      "util::MutexLock lock(mu_);\n"
      "util::CondVar cv_;\n";
  EXPECT_FALSE(HasRule(LintFile("src/serve/foo.cc", snippet), "raw-mutex"));
}

TEST(LintFile, MutexIncludeAloneIsFine) {
  // Including <mutex> without declaring std types is legal (the wrapper
  // header does it); only the std:: type usages are flagged.
  EXPECT_FALSE(HasRule(
      LintFile("src/serve/foo.cc", "#include <mutex>\n"), "raw-mutex"));
}

// ---------------------------------------------------------------------
// Rule: atomic-memory-order

TEST(LintFile, FlagsImplicitOrderAtomicOps) {
  EXPECT_TRUE(HasRule(
      LintFile("src/serve/foo.cc", "bool v = stop_.load();\n"),
      "atomic-memory-order"));
  EXPECT_TRUE(HasRule(
      LintFile("src/serve/foo.cc", "stop_.store(true);\n"),
      "atomic-memory-order"));
  EXPECT_TRUE(HasRule(
      LintFile("src/serve/foo.cc", "count_.fetch_add(1);\n"),
      "atomic-memory-order"));
  EXPECT_TRUE(HasRule(
      LintFile("src/serve/foo.cc", "bool was = flag_->exchange(true);\n"),
      "atomic-memory-order"));
}

TEST(LintFile, ExplicitOrderIsFine) {
  const std::string snippet =
      "bool v = stop_.load(std::memory_order_seq_cst);\n"
      "count_.fetch_add(1, std::memory_order_relaxed);\n"
      "done_.store(true, std::memory_order_release);\n"
      "v_.compare_exchange_strong(e, d, std::memory_order_seq_cst);\n";
  EXPECT_FALSE(HasRule(LintFile("src/serve/foo.cc", snippet),
                       "atomic-memory-order"));
}

TEST(LintFile, MultilineExplicitOrderIsFine) {
  // The order argument may land on a later line than the call token.
  const std::string snippet =
      "start_ns.compare_exchange_strong(\n"
      "    expected, Now(),\n"
      "    std::memory_order_seq_cst);\n";
  EXPECT_FALSE(HasRule(LintFile("src/serve/foo.cc", snippet),
                       "atomic-memory-order"));
}

TEST(LintFile, NonMemberLoadStoreIsFine) {
  // Free functions and plain identifiers named load/store are not
  // atomic member calls.
  const std::string snippet =
      "auto m = load(path);\n"
      "int store = 3;\n"
      "Result<Model> r = Load(path);\n";
  EXPECT_FALSE(HasRule(LintFile("src/serve/foo.cc", snippet),
                       "atomic-memory-order"));
}

// ---------------------------------------------------------------------
// Rule: detached-thread

TEST(LintFile, FlagsDetachedThread) {
  EXPECT_TRUE(HasRule(
      LintFile("src/serve/foo.cc",
               "std::thread([] { Work(); }).detach();\n"),
      "detached-thread"));
  EXPECT_TRUE(HasRule(
      LintFile("src/serve/foo.cc", "worker->detach();\n"),
      "detached-thread"));
}

TEST(LintFile, JoinedThreadIsFine) {
  const std::string snippet =
      "std::thread t([] { Work(); });\n"
      "t.join();\n";
  EXPECT_FALSE(HasRule(LintFile("src/serve/foo.cc", snippet),
                       "detached-thread"));
}

// ---------------------------------------------------------------------
// Rule: unguarded-mutable

TEST(LintFile, FlagsUnguardedMutableMember) {
  EXPECT_TRUE(HasRule(
      LintFile("src/serve/foo.h",
               "#ifndef PAE_SERVE_FOO_H_\n"
               "mutable std::vector<int> cache_;\n#endif\n"),
      "unguarded-mutable"));
}

TEST(LintFile, GuardedMutableIsFine) {
  const std::string snippet =
      "mutable std::vector<int> cache_ PAE_GUARDED_BY(mutex_);\n";
  EXPECT_FALSE(HasRule(LintFile("src/serve/foo.cc", snippet),
                       "unguarded-mutable"));
}

TEST(LintFile, MutableAtomicAndMutexAreFine) {
  const std::string snippet =
      "mutable std::atomic<int64_t> readers{0};\n"
      "mutable Mutex mutex_;\n"
      "mutable util::Mutex other_mutex_;\n";
  EXPECT_FALSE(HasRule(LintFile("src/serve/foo.cc", snippet),
                       "unguarded-mutable"));
}

TEST(LintFile, LambdaMutableQualifierIsFine) {
  const std::string snippet =
      "auto gen = [&, next = size_t{0}]() mutable { return next++; };\n";
  EXPECT_FALSE(HasRule(LintFile("src/crf/foo.cc", snippet),
                       "unguarded-mutable"));
}

// ---------------------------------------------------------------------
// Rule: mmap-reinterpret-cast

TEST(LintFile, FlagsReinterpretCast) {
  EXPECT_TRUE(HasRule(
      LintFile("src/serve/foo.cc",
               "auto* h = reinterpret_cast<const Header*>(data);\n"),
      "mmap-reinterpret-cast"));
}

TEST(LintFile, ArtifactAndMmapFilesAreExempt) {
  const std::string snippet =
      "auto* h = reinterpret_cast<const PaezHeader*>(bytes);\n";
  EXPECT_FALSE(HasRule(LintFile("src/core/model_artifact.cc", snippet),
                       "mmap-reinterpret-cast"));
  EXPECT_FALSE(HasRule(LintFile("src/util/mmap_file.cc", snippet),
                       "mmap-reinterpret-cast"));
}

TEST(LintFile, MemcpyInsteadOfCastIsFine) {
  const std::string snippet =
      "PaezHeader h;\n"
      "std::memcpy(&h, data, sizeof(h));\n";
  EXPECT_FALSE(HasRule(LintFile("src/serve/foo.cc", snippet),
                       "mmap-reinterpret-cast"));
}

// ---------------------------------------------------------------------
// Rule: single-writer-interner

TEST(LintFile, FlagsInternInsideParallelFor) {
  const std::string snippet =
      "pool.ParallelFor(0, n, 1, [&](size_t i) {\n"
      "  ids[i] = interner.Intern(tokens[i]);\n"
      "});\n";
  const std::vector<Violation> vs = LintFile("src/core/foo.cc", snippet);
  ASSERT_TRUE(HasRule(vs, "single-writer-interner"));
  // The violation points at the offending call, not the loop header.
  const auto it = std::find_if(vs.begin(), vs.end(), [](const Violation& v) {
    return v.rule == "single-writer-interner";
  });
  EXPECT_EQ(it->line, 2);
}

TEST(LintFile, FlagsGetOrAddInsideParallelFor) {
  const std::string snippet =
      "pool.ParallelFor(0, pages.size(), 1, [&](size_t p) {\n"
      "  for (const auto& tok : pages[p].tokens) {\n"
      "    vocab->GetOrAdd(tok);\n"
      "  }\n"
      "});\n";
  EXPECT_TRUE(HasRule(LintFile("src/core/foo.cc", snippet),
                      "single-writer-interner"));
}

TEST(LintFile, InternOutsideParallelForIsFine) {
  const std::string snippet =
      "pool.ParallelFor(0, n, 1, [&](size_t i) { Parse(i); });\n"
      "for (const auto& tok : tokens) interner.Intern(tok);\n"
      "vocab.GetOrAdd(word);\n";
  EXPECT_FALSE(HasRule(LintFile("src/core/foo.cc", snippet),
                       "single-writer-interner"));
}

TEST(LintFile, NonMemberInternInsideParallelForIsFine) {
  // Free functions / other identifiers named Intern are not member
  // calls on an interner.
  const std::string snippet =
      "pool.ParallelFor(0, n, 1, [&](size_t i) {\n"
      "  ids[i] = Intern(tokens[i]);\n"
      "  int GetOrAdd = 3;\n"
      "});\n";
  EXPECT_FALSE(HasRule(LintFile("src/core/foo.cc", snippet),
                       "single-writer-interner"));
}

// ---------------------------------------------------------------------
// Violation metadata / allowlist

TEST(LintFile, ReportsFileAndLine) {
  const std::vector<Violation> vs =
      LintFile("src/crf/foo.cc", "int a;\nint r = rand();\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].file, "src/crf/foo.cc");
  EXPECT_EQ(vs[0].line, 2);
  EXPECT_EQ(vs[0].rule, "raw-random");
  EXPECT_NE(vs[0].ToString().find("src/crf/foo.cc:2: [raw-random]"),
            std::string::npos);
}

TEST(Allowlist, ParsesAndFilters) {
  const std::vector<AllowlistEntry> entries = ParseAllowlist(
      "# comment\n"
      "\n"
      "raw-random src/crf/foo.cc\n"
      "naked-assert src/text/bar.cc  # trailing note\n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].rule, "raw-random");
  EXPECT_EQ(entries[0].file, "src/crf/foo.cc");
  EXPECT_EQ(entries[1].rule, "naked-assert");
  EXPECT_EQ(entries[1].file, "src/text/bar.cc");

  std::vector<Violation> vs = {
      {"src/crf/foo.cc", 3, "raw-random", "m"},
      {"src/crf/foo.cc", 4, "naked-assert", "m"},
      {"src/crf/other.cc", 5, "raw-random", "m"},
  };
  vs = ApplyAllowlist(std::move(vs), entries);
  ASSERT_EQ(vs.size(), 2u);
  // The (rule, file) pair must match exactly; same rule in another file
  // and another rule in the same file both survive.
  EXPECT_EQ(vs[0].rule, "naked-assert");
  EXPECT_EQ(vs[1].file, "src/crf/other.cc");
}

TEST(Allowlist, EmptyAllowlistKeepsEverything) {
  std::vector<Violation> vs = {{"src/crf/foo.cc", 1, "raw-random", "m"}};
  EXPECT_EQ(ApplyAllowlist(vs, {}).size(), 1u);
}

TEST(Allowlist, EntryMatchingNothingIsStale) {
  const std::vector<AllowlistEntry> entries = ParseAllowlist(
      "raw-random src/crf/foo.cc\n"
      "naked-assert src/crf/foo.cc\n"
      "raw-random tests/foo_test.cc\n"
      "raw-random srcx/foo.cc\n");
  const std::vector<Violation> vs = {{"src/crf/foo.cc", 3, "raw-random", "m"}};
  // Only trees that were linted can show an entry stale: "srcx" is not
  // "src", and tests/ was not scanned.
  std::vector<AllowlistEntry> stale =
      StaleAllowlistEntries(vs, entries, {"src"});
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].rule, "naked-assert");
  EXPECT_EQ(stale[0].file, "src/crf/foo.cc");

  stale = StaleAllowlistEntries(vs, entries, {"src", "tests", "srcx"});
  ASSERT_EQ(stale.size(), 3u);
  EXPECT_EQ(stale[1].file, "tests/foo_test.cc");
  EXPECT_EQ(stale[2].file, "srcx/foo.cc");

  EXPECT_TRUE(StaleAllowlistEntries({}, {}, {"src"}).empty());
}

}  // namespace
}  // namespace pae::lint
