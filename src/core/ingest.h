#ifndef PAE_CORE_INGEST_H_
#define PAE_CORE_INGEST_H_

#include <string>

#include "core/corpus_io.h"
#include "core/document.h"
#include "core/preprocess.h"
#include "core/types.h"
#include "util/status.h"

namespace pae::core {

/// What one ingestion pass over the pages produces: the paper's
/// pre-processor output (§V-A) — parsed pages and the dictionary-table
/// candidates the seed is built from. The barrier reference
/// (tests/support/oracle.h) computes the same two artifacts in three
/// separate phases (LoadCorpus → oracle::ProcessCorpus →
/// DiscoverCandidates); the contract here is byte-equality with that
/// path:
///
///   * `corpus`     == oracle::ProcessCorpus(LoadCorpus(dir)) field for
///                     field,
///   * `candidates` == DiscoverCandidates(corpus),
///
/// at every thread count (tests/streaming_ingest_test.cc holds both to
/// memcmp-level equality at 1/4/8 threads).
struct IngestedCorpus {
  ProcessedCorpus corpus;
  CandidateSet candidates;
};

struct IngestOptions {
  /// Parse workers (0 = all hardware threads; negative clamps to 1).
  int threads = 1;
};

/// Ingestion of an in-memory corpus: every worker scans, splits,
/// tokenizes and PoS-tags one page while that page is cache-hot,
/// instead of the barrier pipeline's one-artifact-per-phase sweeps.
/// After the workers join, one serial DiscoverCandidates walk harvests
/// the table candidates.
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
