#ifndef PAE_CORE_INGEST_H_
#define PAE_CORE_INGEST_H_

#include <string>

#include "core/corpus_io.h"
#include "core/document.h"
#include "core/preprocess.h"
#include "core/types.h"
#include "text/vocab.h"
#include "util/status.h"

namespace pae::core {

/// Everything one streaming pass over the pages produces. The barrier
/// reference (tests/support/oracle.h) computes the same three artifacts
/// in four separate phases (LoadCorpus → oracle::ProcessCorpus →
/// DiscoverCandidates → a serial vocab fold); the contract here is
/// byte-equality with that path:
///
///   * `corpus`      == oracle::ProcessCorpus(LoadCorpus(dir)) field for
///                      field,
///   * `candidates`  == DiscoverCandidates(corpus),
///   * `token_vocab` == Vocab built by GetOrAdd over every token in
///                      page-major order,
///
/// at every thread count (tests/streaming_ingest_test.cc holds all
/// three to memcmp-level equality at 1/4/8 threads).
struct IngestedCorpus {
  ProcessedCorpus corpus;
  CandidateSet candidates;
  /// Corpus-token dictionary in page-major first-occurrence order
  /// (id 0 = "<unk>") — the live vocabulary the incremental-bootstrap
  /// arc extends as new merchant pages stream in.
  text::Vocab token_vocab;
};

struct IngestOptions {
  /// Parse workers (0 = all hardware threads; negative clamps to 1).
  int threads = 1;
};

/// Single-pass ingestion of an in-memory corpus: every worker parses,
/// tokenizes, PoS-tags, harvests table candidates, and interns tokens
/// for one page while that page is cache-hot, instead of the barrier
/// pipeline's one-artifact-per-phase sweeps. Candidate keys and tokens
/// go through two ConcurrentStringInterners; after the workers join,
/// one serial page-major fold canonicalizes the handles, so the output
/// is byte-identical to the barrier path at every thread count.
IngestedCorpus IngestCorpus(const Corpus& corpus,
                            const IngestOptions& options);

/// Streaming ingestion from disk: pages are read one at a time by the
/// parse workers themselves (StreamingCorpusReader::ReadPageHtml), so
/// page-file IO overlaps parsing and the raw corpus is never
/// materialized in memory. Output is byte-identical to
/// IngestCorpus(LoadCorpus(dir)).
Result<IngestedCorpus> IngestCorpusDir(const std::string& dir,
                                       const IngestOptions& options);

}  // namespace pae::core

#endif  // PAE_CORE_INGEST_H_
