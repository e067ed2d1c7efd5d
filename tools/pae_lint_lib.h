#ifndef PAE_TOOLS_PAE_LINT_LIB_H_
#define PAE_TOOLS_PAE_LINT_LIB_H_

#include <string>
#include <string_view>
#include <vector>

namespace pae::lint {

/// One project-rule violation at a specific file/line.
struct Violation {
  std::string file;     // repo-relative, e.g. "src/crf/crf_model.h"
  int line = 0;         // 1-based
  std::string rule;     // stable rule id, e.g. "raw-random"
  std::string message;  // human-readable explanation

  std::string ToString() const;
};

/// Rule ids enforced by LintFile (also the allowlist keys):
///
///   hot-path-string-map  std::unordered_map<std::string, ...> inside
///                        src/crf/ or src/text/ — the tagging/feature
///                        hot paths must use util::FlatStringInterner.
///   raw-random           rand()/srand()/std::random_device anywhere but
///                        util/rng.h — all randomness flows through the
///                        seeded pae::Rng so experiments reproduce.
///   raw-stdio            std::cout/std::cerr in src/ outside
///                        util/logging.cc — library code logs through
///                        PAE_LOG. CLI front-ends (tools/, bench/)
///                        write to stdout by design and are exempt.
///   naked-assert         assert( in src/ — use PAE_DCHECK, which logs
///                        file:line through util/logging instead of
///                        dying silently under NDEBUG.
///   include-guard        a header whose first #ifndef is not the
///                        canonical PAE_<PATH>_H_ guard.
///   float-accumulator    a scalar `float x = 0...;` accumulated with
///                        `x +=` shortly after — reductions accumulate
///                        in double (see math/vec.h) to avoid float
///                        cancellation drift across bootstrap cycles.
///   hand-rolled-kernel   a hand-rolled dot (`acc +=
///                        static_cast<double>(a[i]) * b[i]`) or axpy
///                        (`y[i] += alpha * x[i]`) loop outside
///                        src/math/ — math/kernels.h has the dispatched
///                        SIMD implementations whose results are
///                        bit-identical across ISAs; private loops fork
///                        the numerics and forfeit the speedup.
///   raw-mutex            std::mutex / std::lock_guard /
///                        std::unique_lock / std::condition_variable
///                        outside src/util/ — concurrency goes through
///                        pae::util::Mutex / MutexLock / CondVar
///                        (util/mutex.h), whose annotations let Clang's
///                        -Wthread-safety prove the lock discipline;
///                        raw std types are invisible to the analysis.
///   atomic-memory-order  an atomic load/store/RMW call without an
///                        explicit std::memory_order argument — the
///                        implicit seq_cst default hides the ordering
///                        decision; spelling it forces the author (and
///                        the reviewer) to state the contract, and makes
///                        deliberate relaxations greppable.
///   detached-thread      std::thread{...}.detach() — detached threads
///                        outlive their state's owner and turn shutdown
///                        into a race; every thread in the tree joins.
///   unguarded-mutable    a `mutable` member that is neither an atomic,
///                        nor a Mutex, nor named in a PAE_GUARDED_BY
///                        annotation — `mutable` means "written under
///                        const", which on shared objects means written
///                        concurrently; the analysis must be told which
///                        lock protects it.
///   mmap-reinterpret-cast
///                        reinterpret_cast outside the two files whose
///                        whole job is reinterpreting mapped bytes
///                        (core/model_artifact.cc, util/mmap_file.cc) —
///                        everywhere else the cast is an aliasing
///                        hazard that belongs behind a typed helper or
///                        std::memcpy.
///   single-writer-interner
///                        FlatStringInterner::Intern or Vocab::GetOrAdd
///                        inside a ParallelFor body — both mutate
///                        single-writer open-addressing tables, so a
///                        worker calling them races every other worker.
///                        Workers write per-index results; intern
///                        serially after the join, which also keeps ids
///                        deterministic.
inline constexpr const char* kAllRules[] = {
    "hot-path-string-map", "raw-random",        "raw-stdio",
    "naked-assert",        "include-guard",     "float-accumulator",
    "hand-rolled-kernel",  "raw-mutex",         "atomic-memory-order",
    "detached-thread",     "unguarded-mutable", "mmap-reinterpret-cast",
    "single-writer-interner",
};

/// Returns `content` with comments and string/char literals replaced by
/// spaces (newlines preserved so line numbers survive). Exposed for
/// testing.
std::string StripCommentsAndStrings(std::string_view content);

/// Canonical include guard for a repo-relative header path:
/// "src/crf/crf_model.h" -> "PAE_CRF_CRF_MODEL_H_".
std::string ExpectedIncludeGuard(std::string_view path);

/// Token-scans one file's content against every project rule. `path` is
/// the repo-relative path (used for path-scoped rules and the include
/// guard); it does not need to exist on disk.
std::vector<Violation> LintFile(std::string_view path,
                                std::string_view content);

/// An allowlist entry grandfathers one (rule, file) pair. The allowlist
/// file format is one `rule-id<space>path` pair per line; blank lines
/// and lines starting with '#' are ignored.
struct AllowlistEntry {
  std::string rule;
  std::string file;
};

/// Parses the allowlist format above.
std::vector<AllowlistEntry> ParseAllowlist(std::string_view content);

/// Removes violations covered by the allowlist.
std::vector<Violation> ApplyAllowlist(
    std::vector<Violation> violations,
    const std::vector<AllowlistEntry>& allowlist);

/// Allowlist entries that grandfather nothing: no violation in
/// `violations` has their (rule, file) pair. Only entries whose file
/// lies in one of `linted_trees` (the top-level names LintTree prefixes
/// paths with, e.g. "src") are judged; a tree that was not linted
/// cannot show an entry stale. The allowlist may only shrink, so the
/// linter treats each of these as an error.
std::vector<AllowlistEntry> StaleAllowlistEntries(
    const std::vector<Violation>& violations,
    const std::vector<AllowlistEntry>& allowlist,
    const std::vector<std::string>& linted_trees);

/// Lints every .h/.cc file under `root_dir` (a directory on disk whose
/// basename becomes the path prefix, e.g. <repo>/src). Files are visited
/// in sorted path order so output is deterministic.
std::vector<Violation> LintTree(const std::string& root_dir);

}  // namespace pae::lint

#endif  // PAE_TOOLS_PAE_LINT_LIB_H_
