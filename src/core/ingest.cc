#include "core/ingest.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "html/stream_scanner.h"
#include "text/fused_segmenter.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace pae::core {

namespace {

/// Reused per-thread scratch so the per-page hot path allocates only
/// what it keeps. The scanner and segmenter buffers are the reason the
/// steady state is almost allocation-free per page.
struct WorkerScratch {
  /// The ingest run the segmenter memo belongs to. The memo is keyed by
  /// sentence bytes alone, so it is only valid for the language and
  /// lexicons of the run that filled it; a thread's first page of a new
  /// run starts from an empty memo.
  uint64_t run = 0;
  std::string html;  // read buffer for pages streamed from disk
  html::StreamScanner scanner;
  text::FusedSegmenter::Scratch segment;
};

/// One page as a worker sees it, borrowed from the caller's corpus or
/// from the worker's read buffer.
struct PageView {
  std::string_view product_id;
  std::string_view html;
};

/// The ingest pipeline is CPU-bound, so it clamps its worker count to
/// the hardware: oversubscribing adds scheduler churn and duplicated
/// per-thread scratch state without buying any parallelism. Purely a
/// scheduling decision — the output is byte-identical at every worker
/// count (tests/streaming_ingest_test.cc).
int IngestWorkers(int configured) {
  const int resolved = util::ThreadPool::ResolveThreads(configured);
  const unsigned hardware = std::thread::hardware_concurrency();
  if (hardware == 0) return resolved;
  return std::min(resolved, static_cast<int>(hardware));
}

/// Distinct id per ingest run, never 0 (see WorkerScratch::run).
uint64_t NextIngestRun() {
  static std::atomic<uint64_t> run{0};
  return run.fetch_add(1, std::memory_order_relaxed) + 1;
}

void RecordMetrics(const IngestedCorpus& out) {
  util::MetricsRegistry& metrics = util::MetricsRegistry::Global();
  int64_t sentences = 0, tables = 0;
  for (const ProcessedPage& page : out.corpus.pages) {
    sentences += static_cast<int64_t>(page.sentences.size());
    tables += static_cast<int64_t>(page.tables.size());
  }
  metrics.GetCounter("preprocess.pages")
      ->Add(static_cast<int64_t>(out.corpus.pages.size()));
  metrics.GetCounter("preprocess.sentences")->Add(sentences);
  metrics.GetCounter("preprocess.tables")->Add(tables);
  metrics.GetCounter("ingest.candidate_pairs")
      ->Add(static_cast<int64_t>(out.candidates.pairs.size()));
}

/// The one ingest body behind both entry points. Each worker reads one
/// page through `read_page(p, &buffer) -> Result<PageView>`, scans it
/// without a DOM (html::StreamScanner) and splits/tokenizes/tags its
/// text in one walk (text::FusedSegmenter). Workers write only their
/// own page slot; after the join one serial DiscoverCandidates walk
/// fills the candidates. A page that fails to read fails the run, the
/// lowest failing page winning, like ThreadPool's own exception rule.
template <typename ReadPage>
Result<IngestedCorpus> Ingest(const std::string& category,
                              text::Language language,
                              const std::vector<std::string>& query_log,
                              const std::vector<std::string>& tokenizer_lexicon,
                              const text::PosLexicon& pos_lexicon,
                              size_t page_count, const IngestOptions& options,
                              const ReadPage& read_page) {
  util::ScopedTimer timer(
      util::MetricsRegistry::Global().GetHistogram("ingest.seconds"));

  IngestedCorpus out;
  out.corpus.category = category;
  out.corpus.language = language;
  out.corpus.query_log = query_log;
  out.corpus.tokenizer = text::MakeTokenizer(language, tokenizer_lexicon);
  out.corpus.pos_tagger =
      std::make_unique<text::PosTagger>(language, pos_lexicon);
  out.corpus.pages.resize(page_count);

  const text::FusedSegmenter segmenter(language, tokenizer_lexicon,
                                       pos_lexicon);
  std::vector<Status> page_status(page_count);
  const uint64_t run = NextIngestRun();
  util::ThreadPool pool(IngestWorkers(options.threads));
  pool.ParallelFor(0, page_count, 1, [&](size_t p) {
    thread_local WorkerScratch scratch;
    if (scratch.run != run) {
      scratch.run = run;
      scratch.segment.cache = {};
    }
    Result<PageView> page = read_page(p, &scratch.html);
    if (!page.ok()) {
      page_status[p] = page.status();
      return;
    }
    ProcessedPage& processed = out.corpus.pages[p];
    processed.product_id = page.value().product_id;
    scratch.scanner.Scan(page.value().html);
    processed.tables = std::move(scratch.scanner.tables());
    segmenter.Segment(scratch.scanner.text(), &processed.sentences,
                      &scratch.segment);
  });
  for (Status& status : page_status) {
    if (!status.ok()) return std::move(status);
  }

  out.candidates = DiscoverCandidates(out.corpus);
  RecordMetrics(out);
  return out;
}

}  // namespace

IngestedCorpus IngestCorpus(const Corpus& corpus,
                            const IngestOptions& options) {
  return Ingest(corpus.category, corpus.language, corpus.query_log,
                corpus.tokenizer_lexicon, corpus.pos_lexicon,
                corpus.pages.size(), options,
                [&](size_t p, std::string*) -> Result<PageView> {
                  return PageView{corpus.pages[p].product_id,
                                  corpus.pages[p].html};
                })
      .value();
}

Result<IngestedCorpus> IngestCorpusDir(const std::string& dir,
                                       const IngestOptions& options) {
  Result<StreamingCorpusReader> opened = StreamingCorpusReader::Open(dir);
  if (!opened.ok()) return opened.status();
  const StreamingCorpusReader& reader = opened.value();
  return Ingest(reader.category(), reader.language(), reader.query_log(),
                reader.resources().tokenizer_lexicon,
                reader.resources().pos_lexicon, reader.page_count(), options,
                [&](size_t p, std::string* buffer) -> Result<PageView> {
                  PAE_RETURN_IF_ERROR(reader.ReadPageHtml(p, buffer));
                  return PageView{reader.product_id(p), *buffer};
                });
}

}  // namespace pae::core
