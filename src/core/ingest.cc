#include "core/ingest.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/normalize.h"
#include "html/stream_scanner.h"
#include "text/fused_segmenter.h"
#include "util/concurrent_interner.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace pae::core {

namespace {

using Handle = util::ConcurrentStringInterner::Handle;

/// One table-entry candidate occurrence harvested while the page was
/// cache-hot: the pair-interner handle plus the table coordinates the
/// serial fold reads the display strings back from.
struct PairOccurrence {
  Handle handle = 0;
  uint32_t table = 0;
  uint32_t entry = 0;
};

/// Everything a parse worker produces for one page besides the
/// ProcessedPage itself.
struct PageHarvest {
  std::vector<PairOccurrence> occurrences;
  /// Token handles deduplicated within the page, in first-occurrence
  /// order. Concatenated page-major these reproduce the global
  /// first-occurrence order a serial token pass would intern in, which
  /// is exactly what Canonicalize needs.
  std::vector<Handle> tokens;
};

/// Per-page token-handle dedup set: open addressing with a generation
/// stamp, so starting a new page is a counter bump instead of an
/// unordered_set::clear, and the hot insert is one probe chain with no
/// allocation.
class PageTokenSet {
 public:
  void BeginPage() {
    if (slots_.empty()) slots_.assign(1024, Slot{});
    ++generation_;
    count_ = 0;
    if (generation_ == 0) {  // stamp wrap: invalidate everything
      std::fill(slots_.begin(), slots_.end(), Slot{});
      generation_ = 1;
    }
  }

  /// True if `handle` was not yet seen on this page.
  bool Insert(Handle handle) {
    if ((count_ + 1) * 2 > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    size_t idx = Mix(handle) & mask;
    while (true) {
      Slot& slot = slots_[idx];
      if (slot.generation != generation_) {
        slot.handle = handle;
        slot.generation = generation_;
        ++count_;
        return true;
      }
      if (slot.handle == handle) return false;
      idx = (idx + 1) & mask;
    }
  }

 private:
  struct Slot {
    Handle handle = 0;
    uint32_t generation = 0;
  };

  static size_t Mix(Handle handle) {
    return static_cast<size_t>(handle * uint64_t{0x9E3779B97F4A7C15});
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.generation != generation_) continue;
      size_t idx = Mix(slot.handle) & mask;
      while (slots_[idx].generation == generation_) idx = (idx + 1) & mask;
      slots_[idx] = slot;
    }
  }

  std::vector<Slot> slots_;
  uint32_t generation_ = 0;
  size_t count_ = 0;
};

/// Reused per-thread scratch so the per-page hot path allocates only
/// what it keeps. The scanner and segmenter buffers are the reason the
/// streaming arm's steady state is almost allocation-free per page.
struct WorkerScratch {
  std::string pair_key;
  PageTokenSet page_tokens;
  html::StreamScanner scanner;
  text::FusedSegmenter::Scratch segment;
  /// Memo entries parallel to the current page's sentences; their
  /// cookies carry the per-token interner handles (see ParsePage).
  std::vector<text::FusedSegmenter::CacheEntry*> entries;
};

struct SizeHints {
  size_t tokens = 0;
  size_t pairs = 0;
};

/// The ingest pipeline is CPU-bound, so it clamps its worker count to
/// the hardware: oversubscribing adds scheduler churn, interner CAS
/// contention, and duplicated per-thread scratch state without buying
/// any parallelism. Purely a scheduling decision — the output is
/// byte-identical at every worker count (tests/streaming_ingest_test.cc).
int IngestWorkers(int configured) {
  const int resolved = util::ThreadPool::ResolveThreads(configured);
  const unsigned hardware = std::thread::hardware_concurrency();
  if (hardware == 0) return resolved;
  return std::min(resolved, static_cast<int>(hardware));
}

/// Distinct id per ingest run, never 0. Worker scratch (and with it the
/// segmenter memo) is thread_local, so it outlives the per-run interners
/// whose handles the memo cookies hold; comparing the stored generation
/// against the current run's id is what keeps a later run from reading
/// stale handles.
uint64_t NextIngestGeneration() {
  static std::atomic<uint64_t> generation{0};
  return generation.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Derives interner pre-sizes from the corpus byte count. Distinct
/// tokens are bounded by total tokens, and a token costs well over 16
/// page bytes once markup overhead is counted (the table tolerates a
/// further 1.5× past the estimate before its load-factor guard);
/// a dictionary-table entry costs ≥ ~30 bytes of markup. The tables
/// carry a load-factor guard, not growth (util/concurrent_interner.h),
/// so an estimate this generous is the whole sizing policy.
SizeHints DeriveSizeHints(uint64_t total_page_bytes) {
  SizeHints hints;
  hints.tokens = static_cast<size_t>(total_page_bytes / 16) + 4096;
  hints.pairs = static_cast<size_t>(total_page_bytes / 32) + 1024;
  return hints;
}

/// The fused per-page pass: one streaming scan of the raw HTML (no DOM,
/// html::StreamScanner), one decode of the page text with fused
/// sentence/token/tag state machines (text::FusedSegmenter), plus token
/// interning and candidate harvesting while the page is still in cache.
/// Outputs are byte-identical to the barrier pipeline's
/// ParseHtml → ExtractText/ExtractDictionaryTables → SplitSentences →
/// Tokenize → Tag chain; both fused components carry differential tests
/// against the modular path.
void ParsePage(const std::string& html, const std::string& product_id,
               const text::FusedSegmenter& segmenter, uint64_t generation,
               util::ConcurrentStringInterner* token_interner,
               util::ConcurrentStringInterner* pair_interner,
               ProcessedPage* processed, PageHarvest* harvest,
               WorkerScratch* scratch) {
  processed->product_id = product_id;

  scratch->scanner.Scan(html);
  processed->tables = std::move(scratch->scanner.tables());
  scratch->entries.clear();
  segmenter.Segment(scratch->scanner.text(), &processed->sentences,
                    &scratch->segment, &scratch->entries);

  // Token interning, memoized per distinct sentence: the memo entry's
  // cookie holds this run's interner handles, so a repeated sentence
  // costs only the per-page dedup probes. A generation mismatch means
  // the cookie belongs to an earlier run's interner and is refilled.
  scratch->page_tokens.BeginPage();
  for (size_t s = 0; s < processed->sentences.size(); ++s) {
    const text::LabeledSequence& seq = processed->sentences[s];
    text::FusedSegmenter::CacheEntry* entry = scratch->entries[s];
    if (entry != nullptr && entry->cookie_generation == generation) {
      for (const uint64_t cookie : entry->cookie) {
        const Handle handle = static_cast<Handle>(cookie);
        if (scratch->page_tokens.Insert(handle)) {
          harvest->tokens.push_back(handle);
        }
      }
      continue;
    }
    if (entry != nullptr) {
      entry->cookie.clear();
      entry->cookie.reserve(seq.tokens.size());
    }
    for (const std::string& token : seq.tokens) {
      const Handle handle = token_interner->Intern(token);
      if (entry != nullptr) entry->cookie.push_back(handle);
      if (scratch->page_tokens.Insert(handle)) {
        harvest->tokens.push_back(handle);
      }
    }
    if (entry != nullptr) entry->cookie_generation = generation;
  }

  for (size_t t = 0; t < processed->tables.size(); ++t) {
    const auto& entries = processed->tables[t].entries;
    for (size_t e = 0; e < entries.size(); ++e) {
      const auto& [name, value] = entries[e];
      if (name.empty() || value.empty()) continue;
      scratch->pair_key.assign(name);
      scratch->pair_key.push_back('\t');
      AppendNormalizedValue(value, &scratch->pair_key);
      harvest->occurrences.push_back(
          PairOccurrence{pair_interner->Intern(scratch->pair_key),
                         static_cast<uint32_t>(t), static_cast<uint32_t>(e)});
    }
  }
}

/// The serial post-join fold: canonicalizes both interners in
/// page-major order and materializes the CandidateSet and Vocab so they
/// are byte-identical to the barrier pipeline's outputs at every thread
/// count.
void FoldHarvests(const std::vector<PageHarvest>& harvests,
                  util::ConcurrentStringInterner* token_interner,
                  util::ConcurrentStringInterner* pair_interner,
                  IngestedCorpus* out) {
  // Candidate pairs. Canonical id = first occurrence in page-major
  // order, which is the insertion order DiscoverCandidates' map sees.
  std::vector<Handle> order;
  size_t total_occurrences = 0;
  for (const PageHarvest& harvest : harvests) {
    total_occurrences += harvest.occurrences.size();
  }
  order.reserve(total_occurrences);
  for (const PageHarvest& harvest : harvests) {
    for (const PairOccurrence& occurrence : harvest.occurrences) {
      order.push_back(occurrence.handle);
    }
  }
  pair_interner->Canonicalize(order);

  out->candidates.pairs.assign(pair_interner->size(), CandidatePair{});
  for (size_t p = 0; p < harvests.size(); ++p) {
    const ProcessedPage& page = out->corpus.pages[p];
    for (const PairOccurrence& occurrence : harvests[p].occurrences) {
      CandidatePair& pair =
          out->candidates.pairs[static_cast<size_t>(
              pair_interner->id(occurrence.handle))];
      if (pair.count == 0) {
        // First page-major occurrence owns the display strings, exactly
        // like the first map insertion in DiscoverCandidates.
        const auto& entry = page.tables[occurrence.table].entries[occurrence.entry];
        pair.attribute = entry.first;
        pair.value = entry.second;
      }
      pair.count += 1;
      pair.product_ids.push_back(page.product_id);
    }
  }
  // Same ordering as DiscoverCandidates. The comparator is total here:
  // distinct keys imply distinct (attribute, normalized-value), and the
  // stored display value normalizes to its key's value component, so no
  // two pairs tie on (count, attribute, value).
  std::sort(out->candidates.pairs.begin(), out->candidates.pairs.end(),
            [](const CandidatePair& a, const CandidatePair& b) {
              if (a.count != b.count) return a.count > b.count;
              if (a.attribute != b.attribute) return a.attribute < b.attribute;
              return a.value < b.value;
            });

  // Token vocabulary. Per-page first-occurrence lists concatenated
  // page-major preserve the global first-occurrence order, so GetOrAdd
  // over the canonical keys equals a serial GetOrAdd per token
  // (including the "<unk>" dedup against the constructor sentinel).
  order.clear();
  for (const PageHarvest& harvest : harvests) {
    order.insert(order.end(), harvest.tokens.begin(), harvest.tokens.end());
  }
  token_interner->Canonicalize(order);
  out->token_vocab.Reserve(token_interner->size() + 1);
  for (size_t id = 0; id < token_interner->size(); ++id) {
    out->token_vocab.GetOrAdd(
        token_interner->key_for_id(static_cast<int32_t>(id)));
  }
}

void RecordMetrics(const IngestedCorpus& out,
                   const util::ConcurrentStringInterner& token_interner) {
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
  metrics.GetCounter("ingest.distinct_tokens")
      ->Add(static_cast<int64_t>(token_interner.size()));
  metrics.GetCounter("ingest.candidate_pairs")
      ->Add(static_cast<int64_t>(out.candidates.pairs.size()));
}

}  // namespace

IngestedCorpus IngestCorpus(const Corpus& corpus,
                            const IngestOptions& options) {
  util::MetricsRegistry& metrics = util::MetricsRegistry::Global();
  util::ScopedTimer timer(metrics.GetHistogram("ingest.seconds"));

  IngestedCorpus out;
  out.corpus.category = corpus.category;
  out.corpus.language = corpus.language;
  out.corpus.query_log = corpus.query_log;
  out.corpus.tokenizer =
      text::MakeTokenizer(corpus.language, corpus.tokenizer_lexicon);
  out.corpus.pos_tagger = std::make_unique<text::PosTagger>(
      corpus.language, corpus.pos_lexicon);
  out.corpus.pages.resize(corpus.pages.size());

  uint64_t total_bytes = 0;
  for (const ProductPage& page : corpus.pages) total_bytes += page.html.size();
  const SizeHints hints = DeriveSizeHints(total_bytes);
  util::ConcurrentStringInterner token_interner(hints.tokens);
  util::ConcurrentStringInterner pair_interner(hints.pairs);

  const text::FusedSegmenter segmenter(corpus.language,
                                       corpus.tokenizer_lexicon,
                                       corpus.pos_lexicon);
  std::vector<PageHarvest> harvests(corpus.pages.size());
  const uint64_t generation = NextIngestGeneration();
  util::ThreadPool pool(IngestWorkers(options.threads));
  pool.ParallelFor(0, corpus.pages.size(), 1, [&](size_t p) {
    thread_local WorkerScratch scratch;
    ParsePage(corpus.pages[p].html, corpus.pages[p].product_id, segmenter,
              generation, &token_interner, &pair_interner,
              &out.corpus.pages[p], &harvests[p], &scratch);
  });

  FoldHarvests(harvests, &token_interner, &pair_interner, &out);
  RecordMetrics(out, token_interner);
  return out;
}

Result<IngestedCorpus> IngestCorpusDir(const std::string& dir,
                                       const IngestOptions& options) {
  util::MetricsRegistry& metrics = util::MetricsRegistry::Global();
  util::ScopedTimer timer(metrics.GetHistogram("ingest.seconds"));

  Result<StreamingCorpusReader> reader_result = StreamingCorpusReader::Open(dir);
  if (!reader_result.ok()) return reader_result.status();
  const StreamingCorpusReader& reader = reader_result.value();

  IngestedCorpus out;
  out.corpus.category = reader.category();
  out.corpus.language = reader.language();
  out.corpus.query_log = reader.query_log();
  out.corpus.tokenizer = text::MakeTokenizer(
      reader.language(), reader.resources().tokenizer_lexicon);
  out.corpus.pos_tagger = std::make_unique<text::PosTagger>(
      reader.language(), reader.resources().pos_lexicon);
  out.corpus.pages.resize(reader.page_count());

  const SizeHints hints = DeriveSizeHints(reader.total_page_bytes());
  util::ConcurrentStringInterner token_interner(hints.tokens);
  util::ConcurrentStringInterner pair_interner(hints.pairs);

  const text::FusedSegmenter segmenter(reader.language(),
                                       reader.resources().tokenizer_lexicon,
                                       reader.resources().pos_lexicon);
  std::vector<PageHarvest> harvests(reader.page_count());
  std::vector<Status> page_status(reader.page_count());
  const uint64_t generation = NextIngestGeneration();
  util::ThreadPool pool(IngestWorkers(options.threads));
  pool.ParallelFor(0, reader.page_count(), 1, [&](size_t p) {
    thread_local WorkerScratch scratch;
    thread_local std::string html;
    Status status = reader.ReadPageHtml(p, &html);
    if (!status.ok()) {
      page_status[p] = std::move(status);
      return;
    }
    ParsePage(html, reader.product_id(p), segmenter, generation,
              &token_interner, &pair_interner, &out.corpus.pages[p],
              &harvests[p], &scratch);
  });
  // Lowest failing page wins, like ThreadPool's own exception rule.
  for (Status& status : page_status) {
    if (!status.ok()) return std::move(status);
  }

  FoldHarvests(harvests, &token_interner, &pair_interner, &out);
  RecordMetrics(out, token_interner);
  return out;
}

}  // namespace pae::core
