// The serving layer: GenerationCell hot-swap semantics (including the
// multi-threaded swap hammer), ExtractionEngine byte-identity with the
// batch ExtractWithModel path and with the DOM reference front end on
// randomized tag soup, the in-process server smoke and the
// deterministic load driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/apply.h"
#include "core/bootstrap.h"
#include "core/corpus_io.h"
#include "core/engine.h"
#include "core/ingest.h"
#include "core/model_artifact.h"
#include "core/normalize.h"
#include "core/tag_filter.h"
#include "crf/crf_tagger.h"
#include "datagen/generator.h"
#include "serve/client.h"
#include "serve/generation.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "support/oracle.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace pae {
namespace {

constexpr char kPageHtml[] = "<p>色は赤です。</p>";

/// Tags the literal token "赤" with a per-instance attribute name, so a
/// response's triples identify exactly which engine generation served
/// it.
class GenTagger : public text::SequenceTagger {
 public:
  explicit GenTagger(std::string attribute)
      : attribute_(std::move(attribute)) {}

  Status Train(const std::vector<text::LabeledSequence>&) override {
    return Status::Ok();
  }
  std::vector<std::string> Predict(
      const text::LabeledSequence& seq) const override {
    std::vector<std::string> labels(seq.tokens.size(), text::kOutsideLabel);
    for (size_t i = 0; i < seq.tokens.size(); ++i) {
      if (seq.tokens[i] == "赤") labels[i] = "B-" + attribute_;
    }
    return labels;
  }
  ScoredPrediction PredictScored(
      const text::LabeledSequence& seq) const override {
    ScoredPrediction out;
    out.labels = Predict(seq);
    out.confidence.assign(out.labels.size(), 0.9);
    return out;
  }
  std::string Name() const override { return "gen-" + attribute_; }

 private:
  std::string attribute_;
};

/// An engine whose output attribute encodes `tag` (e.g. "色7" for the
/// 7th published generation).
std::shared_ptr<const core::ExtractionEngine> MakeStubEngine(
    const std::string& tag) {
  return std::make_shared<core::ExtractionEngine>(
      std::make_shared<GenTagger>(tag), text::Language::kJa,
      std::vector<std::string>{"です", "ではありません"},
      text::PosLexicon{},
      core::EngineOptions{});
}

/// The batch-path reference output for a one-page corpus tagged by
/// GenTagger(tag): what ExtractWithModel returns, which the engine must
/// match byte for byte.
std::vector<core::Triple> BatchReference(const std::string& product_id,
                                         const std::string& tag) {
  core::Corpus corpus;
  corpus.language = text::Language::kJa;
  corpus.tokenizer_lexicon = {"です", "ではありません"};
  core::ProductPage page;
  page.product_id = product_id;
  page.html = kPageHtml;
  corpus.pages = {page};
  core::ProcessedCorpus processed = core::IngestCorpus(corpus, {}).corpus;
  GenTagger tagger(tag);
  return core::ExtractWithModel(tagger, processed, core::ApplyOptions{});
}

std::string TestSocketPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

// ---------------------------------------------------------------------
// GenerationCell

TEST(GenerationCellTest, EmptyBeforeFirstPublish) {
  serve::GenerationCell cell;
  EXPECT_EQ(cell.generation(), 0u);
  serve::GenerationCell::Lease lease = cell.Acquire();
  EXPECT_TRUE(lease.empty());
  EXPECT_EQ(lease.engine(), nullptr);
}

TEST(GenerationCellTest, PublishAdvancesGenerations) {
  serve::GenerationCell cell;
  EXPECT_EQ(cell.Publish(MakeStubEngine("a")), 1u);
  EXPECT_EQ(cell.Publish(MakeStubEngine("b")), 2u);
  EXPECT_EQ(cell.generation(), 2u);
  serve::GenerationCell::Lease lease = cell.Acquire();
  ASSERT_FALSE(lease.empty());
  EXPECT_EQ(lease.generation(), 2u);
}

TEST(GenerationCellTest, LeasePinsOldGenerationAcrossSwap) {
  serve::GenerationCell cell;
  auto old_engine = MakeStubEngine("old");
  cell.Publish(old_engine);
  serve::GenerationCell::Lease lease = cell.Acquire();
  ASSERT_EQ(lease.generation(), 1u);
  const core::ExtractionEngine* pinned = lease.engine();
  cell.Publish(MakeStubEngine("new"));
  // The in-flight lease still serves the old snapshot...
  EXPECT_EQ(lease.engine(), pinned);
  EXPECT_EQ(pinned, old_engine.get());
  // ...while new acquisitions see the new generation.
  serve::GenerationCell::Lease fresh = cell.Acquire();
  EXPECT_EQ(fresh.generation(), 2u);
  EXPECT_NE(fresh.engine(), pinned);
}

TEST(GenerationCellTest, PublisherRunsAheadUntilSlotReuse) {
  serve::GenerationCell cell;
  cell.Publish(MakeStubEngine("g1"));
  serve::GenerationCell::Lease lease = cell.Acquire();  // pins slot 1
  // Slots 2..kSlots and slot 0 are free: kSlots - 1 more publishes must
  // not block. Reusing slot 1 (generation kSlots + 1) would.
  for (size_t i = 2; i <= serve::GenerationCell::kSlots; ++i) {
    EXPECT_EQ(cell.Publish(MakeStubEngine("g" + std::to_string(i))), i);
  }
  // Release in a helper thread, then the blocked publish completes.
  std::thread releaser([&lease] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    lease.Release();
  });
  EXPECT_EQ(cell.Publish(MakeStubEngine("g9")),
            serve::GenerationCell::kSlots + 1);
  releaser.join();
}

// The tentpole race test: reader threads hammer Extract through the
// generation pointer while a publisher swaps 100 generations under
// them. Every response must be attributable to exactly one published
// generation and byte-identical to the batch path's output for that
// generation. Run under TSan in check.sh's sanitizer pass.
TEST(GenerationCellTest, HotSwapHammerYieldsOnlyPublishedGenerations) {
  constexpr int kGenerations = 100;
  constexpr int kReaders = 8;

  std::vector<std::shared_ptr<const core::ExtractionEngine>> engines;
  std::vector<std::vector<core::Triple>> expected(kGenerations + 1);
  engines.reserve(kGenerations);
  for (int g = 1; g <= kGenerations; ++g) {
    const std::string tag = "色" + std::to_string(g);
    engines.push_back(MakeStubEngine(tag));
    expected[static_cast<size_t>(g)] = BatchReference("p1", tag);
    ASSERT_FALSE(expected[static_cast<size_t>(g)].empty());
  }

  serve::GenerationCell cell;
  std::atomic<bool> done{false};
  std::atomic<int64_t> reads{0};
  std::atomic<int64_t> mismatches{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      auto scratch = core::ExtractionEngine::NewScratch();
      while (!done.load(std::memory_order_seq_cst)) {
        serve::GenerationCell::Lease lease = cell.Acquire();
        if (lease.empty()) continue;
        const uint64_t generation = lease.generation();
        if (generation < 1 ||
            generation > static_cast<uint64_t>(kGenerations)) {
          mismatches.fetch_add(1, std::memory_order_seq_cst);
          continue;
        }
        std::vector<core::Triple> triples =
            lease.engine()->Extract("p1", kPageHtml, scratch.get());
        if (triples != expected[generation]) {
          mismatches.fetch_add(1, std::memory_order_seq_cst);
        }
        reads.fetch_add(1, std::memory_order_seq_cst);
      }
    });
  }

  for (int g = 1; g <= kGenerations; ++g) {
    cell.Publish(engines[static_cast<size_t>(g - 1)]);
    std::this_thread::yield();
  }
  // Let readers observe the final generation before stopping.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  done.store(true, std::memory_order_seq_cst);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(mismatches.load(std::memory_order_seq_cst), 0);
  EXPECT_GT(reads.load(std::memory_order_seq_cst), 0);
  EXPECT_EQ(cell.generation(), static_cast<uint64_t>(kGenerations));
}

// The same hammer against real CRF engines: publishes alternate between
// two mmap-backed (`.paez`) generations from two different trainings
// while readers run inference straight over the shared mappings. The
// trainings tag the same value under different attribute names, so
// every response names the generation that served it, and it must be
// byte-identical to that generation's reference. Run under TSan in
// check.sh's serve pass; the fixture is built once per process so
// --gtest_repeat reuses it.
TEST(GenerationCellTest, HotSwapHammerPackedArtifact) {
  struct Fixture {
    std::shared_ptr<const core::ExtractionEngine> engines[2];
    std::vector<core::Triple> expected[2];
  };
  static const Fixture* fixture = [] {
    auto* f = new Fixture();
    const std::vector<std::string> lexicon = {"重量", "kg", "です"};
    text::PosLexicon pos;
    pos.word_tags = {{"重量", "NN"}, {"kg", "UNIT"}, {"です", "VB"}};
    const char* const attributes[2] = {"重量", "質量"};
    for (int g = 0; g < 2; ++g) {
      Rng rng(9);
      std::vector<text::LabeledSequence> data;
      for (int i = 0; i < 80; ++i) {
        text::LabeledSequence seq;
        seq.tokens = {"重量", "は", std::to_string(rng.NextInt(1, 9)), "kg",
                      "です"};
        seq.pos = {"NN", "PRT", "NUM", "UNIT", "VB"};
        seq.labels = {"O", "O", std::string("B-") + attributes[g],
                      std::string("I-") + attributes[g], "O"};
        data.push_back(std::move(seq));
      }
      crf::CrfOptions options;
      options.max_iterations = 20;
      crf::CrfTagger trained(options);
      PAE_CHECK(trained.Train(data).ok());
      const std::string paez_path = TestSocketPath(
          "hammer_model" + std::to_string(g) + ".paez");  // temp-dir helper
      PAE_CHECK(core::PackModelArtifact(trained, paez_path).ok());
      auto loaded = core::LoadCrfModel(paez_path);
      PAE_CHECK(loaded.ok()) << loaded.status().ToString();
      PAE_CHECK(loaded.value().tagger->packed());
      f->engines[g] = std::make_shared<core::ExtractionEngine>(
          loaded.value().tagger, text::Language::kJa, lexicon, pos,
          core::EngineOptions{});
      auto scratch = core::ExtractionEngine::NewScratch();
      f->expected[g] = f->engines[g]->Extract(
          "p1", "<p>重量は7kgです。</p>", scratch.get());
      PAE_CHECK(!f->expected[g].empty())
          << "fixture page must actually extract, or the hammer is vacuous";
    }
    PAE_CHECK(f->expected[0] != f->expected[1])
        << "the two generations must be told apart by their output";
    return f;
  }();

  constexpr int kSwaps = 100;
  constexpr int kReaders = 4;
  serve::GenerationCell cell;
  std::atomic<bool> done{false};
  std::atomic<int64_t> reads{0};
  std::atomic<int64_t> mismatches{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      auto scratch = core::ExtractionEngine::NewScratch();
      while (!done.load(std::memory_order_seq_cst)) {
        serve::GenerationCell::Lease lease = cell.Acquire();
        if (lease.empty()) continue;
        std::vector<core::Triple> triples = lease.engine()->Extract(
            "p1", "<p>重量は7kgです。</p>", scratch.get());
        const int g = lease.engine() == fixture->engines[0].get() ? 0 : 1;
        if (triples != fixture->expected[g]) {
          mismatches.fetch_add(1, std::memory_order_seq_cst);
        }
        reads.fetch_add(1, std::memory_order_seq_cst);
      }
    });
  }

  for (int g = 1; g <= kSwaps; ++g) {
    cell.Publish(fixture->engines[g % 2]);
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  done.store(true, std::memory_order_seq_cst);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(mismatches.load(std::memory_order_seq_cst), 0);
  EXPECT_GT(reads.load(std::memory_order_seq_cst), 0);
}

// ---------------------------------------------------------------------
// ExtractionEngine

TEST(ExtractionEngineTest, MatchesBatchPathByteForByte) {
  auto engine = MakeStubEngine("色");
  auto scratch = core::ExtractionEngine::NewScratch();
  std::vector<core::Triple> served =
      engine->Extract("p1", kPageHtml, scratch.get());
  EXPECT_EQ(served, BatchReference("p1", "色"));
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].attribute, "色");
  EXPECT_EQ(served[0].value, "赤");
}

TEST(ExtractionEngineTest, ScratchReuseAllocatesNoNewScratches) {
  auto engine = MakeStubEngine("色");
  auto scratch = core::ExtractionEngine::NewScratch();
  util::Counter* created =
      util::MetricsRegistry::Global().GetCounter("engine.scratch_created");
  engine->Extract("warm", kPageHtml, scratch.get());
  const int64_t before = created->value();
  for (int i = 0; i < 100; ++i) {
    engine->Extract("p" + std::to_string(i), kPageHtml, scratch.get());
  }
  // Steady state: the pre-allocated scratch serves every request; no
  // request-path Scratch construction (the model-sized state lives in
  // the engine, allocated once before the loop).
  EXPECT_EQ(created->value(), before);
}

TEST(ExtractionEngineTest, StatsReportPipelineCounts) {
  auto engine = MakeStubEngine("色");
  core::EngineRequestStats stats;
  engine->Extract("p1", kPageHtml, nullptr, &stats);
  EXPECT_EQ(stats.sentences, 1);
  EXPECT_EQ(stats.spans, 1);
  EXPECT_EQ(stats.triples, 1);
  // A negated page: the span is dropped by negation filtering.
  engine->Extract("p2", "<p>色は赤ではありません。</p>", nullptr, &stats);
  EXPECT_EQ(stats.triples, 0);
}

/// Labels tokens by content so random pages yield spans: a token with
/// an ASCII digit is a "num" value (consecutive ones form one span),
/// a few listed words are "word" values. Confidences come from a token
/// hash, so a confidence bar drops some spans and keeps others.
class SoupTagger : public text::SequenceTagger {
 public:
  Status Train(const std::vector<text::LabeledSequence>&) override {
    return Status::Ok();
  }
  std::vector<std::string> Predict(
      const text::LabeledSequence& seq) const override {
    return PredictScored(seq).labels;
  }
  ScoredPrediction PredictScored(
      const text::LabeledSequence& seq) const override {
    ScoredPrediction out;
    bool previous_num = false;
    for (const std::string& token : seq.tokens) {
      const bool num = token.find_first_of("0123456789") != std::string::npos;
      if (num) {
        out.labels.push_back(previous_num ? "I-num" : "B-num");
      } else if (token == "word" || token == "ズーム" || token == "光学" ||
                 token == "価格") {
        out.labels.push_back("B-word");
      } else {
        out.labels.push_back(text::kOutsideLabel);
      }
      previous_num = num;
      out.confidence.push_back(
          static_cast<double>(std::hash<std::string>{}(token) % 100) / 100.0);
    }
    return out;
  }
  std::string Name() const override { return "soup"; }
};

/// One engine generation plus the DOM reference front end built from
/// the same resources.
struct SoupEngine {
  std::shared_ptr<const core::ExtractionEngine> engine;
  std::unique_ptr<text::Tokenizer> tokenizer;
  std::unique_ptr<text::PosTagger> pos_tagger;
};

SoupEngine MakeSoupEngine(text::Language language,
                          core::EngineOptions options) {
  const std::vector<std::string> lexicon =
      language == text::Language::kJa
          ? std::vector<std::string>{"光学ズーム", "ズーム", "です",
                                     "ではありません"}
          : std::vector<std::string>{};
  text::PosLexicon pos_lexicon;
  pos_lexicon.word_tags = {{"倍", "UNIT"}, {"kg", "UNIT"}, {"word", "NOUN"}};
  SoupEngine out;
  out.engine = std::make_shared<core::ExtractionEngine>(
      std::make_shared<SoupTagger>(), language, lexicon, pos_lexicon,
      std::move(options));
  out.tokenizer = text::MakeTokenizer(language, lexicon);
  out.pos_tagger = std::make_unique<text::PosTagger>(language, pos_lexicon);
  return out;
}

/// What Extract must return: the DOM reference front end (ParseHtml →
/// ExtractText → SplitSentences → Tokenize → Tag) fed through the shared
/// tag → filter core, then the catalog filter and per-page dedup.
std::vector<core::Triple> DomOracleExtract(const SoupEngine& soup,
                                           const std::string& product_id,
                                           const std::string& html,
                                           int64_t* sentence_count) {
  const core::ExtractionEngine& engine = *soup.engine;
  const std::vector<text::LabeledSequence> sentences =
      oracle::SegmentHtml(html, *soup.tokenizer, *soup.pos_tagger);
  *sentence_count = static_cast<int64_t>(sentences.size());
  std::vector<const text::LabeledSequence*> pointers;
  for (const text::LabeledSequence& sentence : sentences) {
    pointers.push_back(&sentence);
  }
  const text::NegationDetector negation(engine.language());
  std::vector<core::FilteredSentence> filtered;
  core::TagAndFilter(
      engine.tagger(), pointers,
      engine.options().negation_filtering ? &negation : nullptr,
      engine.options().min_span_confidence, nullptr, nullptr, &filtered);
  const auto& accepted = engine.options().accepted_pairs;
  std::vector<core::Triple> out;
  std::unordered_set<std::string> seen;
  core::SpanValue value;
  for (size_t i = 0; i < sentences.size(); ++i) {
    for (const text::ValueSpan& span : filtered[i].spans) {
      core::ReadSpanValue(sentences[i], span, engine.language(), &value);
      if (!accepted.empty() && accepted.count(value.key) == 0) continue;
      if (!seen.insert(value.key).second) continue;
      out.push_back(core::Triple{product_id, span.attribute, value.display});
    }
  }
  return out;
}

/// Tag soup plus, now and then, a negated sentence in the page language.
std::string RandomSoupPage(Rng* rng, text::Language language) {
  std::string page = oracle::RandomHtmlSoup(rng);
  if (rng->Bernoulli(0.3)) {
    page += language == text::Language::kJa
                ? "<p>価格は123ではありません。</p>"
                : "<p>word 123 nicht.</p>";
  }
  return page;
}

/// Two engine generations in different languages, so a sentence memo
/// that leaked across requests would hand one engine the other's
/// segmentation.
std::vector<SoupEngine> TwoSoupGenerations() {
  core::EngineOptions ja_options;
  ja_options.min_span_confidence = 0.3;
  core::EngineOptions de_options;
  for (const char* value : {"123", "10,000", "word"}) {
    de_options.accepted_pairs.insert(
        core::PairKey(std::string(value) == "word" ? "word" : "num",
                      core::NormalizeValue(value)));
  }
  std::vector<SoupEngine> engines;
  engines.push_back(MakeSoupEngine(text::Language::kJa, ja_options));
  engines.push_back(MakeSoupEngine(text::Language::kDe, de_options));
  return engines;
}

TEST(ExtractionEngineTest, FrontEndMatchesDomOracleOnTagSoup) {
  const std::vector<SoupEngine> engines = TwoSoupGenerations();
  // One Scratch across every page and both generations, as a server
  // worker holds it across hot swaps.
  auto scratch = core::ExtractionEngine::NewScratch();
  Rng rng(20261017);
  core::EngineRequestStats totals;
  for (int iter = 0; iter < 600; ++iter) {
    const SoupEngine& soup = engines[static_cast<size_t>(iter % 2)];
    const std::string page = RandomSoupPage(&rng, soup.engine->language());
    SCOPED_TRACE("iter " + std::to_string(iter) + ": " + page);
    const std::string product_id = "p" + std::to_string(iter);
    core::EngineRequestStats stats;
    const std::vector<core::Triple> served =
        soup.engine->Extract(product_id, page, scratch.get(), &stats);
    int64_t oracle_sentences = 0;
    ASSERT_EQ(served, DomOracleExtract(soup, product_id, page,
                                       &oracle_sentences));
    ASSERT_EQ(stats.sentences, oracle_sentences);
    totals.negation_dropped += stats.negation_dropped;
    totals.confidence_dropped += stats.confidence_dropped;
    totals.triples += stats.triples;
  }
  // The soup must actually reach every branch of the filter.
  EXPECT_GT(totals.negation_dropped, 0);
  EXPECT_GT(totals.confidence_dropped, 0);
  EXPECT_GT(totals.triples, 0);
}

TEST(ExtractionEngineTest, NoMemoStateLeaksBetweenRequests) {
  const std::vector<SoupEngine> engines = TwoSoupGenerations();
  const core::ExtractionEngine& ja = *engines[0].engine;
  const std::string page_a =
      "<p>光学ズーム10倍。</p><p>価格は123です。</p><p>光学ズーム10倍。</p>";
  const std::vector<core::Triple> fresh =
      ja.Extract("a", page_a, core::ExtractionEngine::NewScratch().get());
  ASSERT_FALSE(fresh.empty());

  // 1000 other pages through one Scratch, across both generations; the
  // German engine also sees page A's exact sentence bytes, which it
  // segments differently.
  auto scratch = core::ExtractionEngine::NewScratch();
  Rng rng(4242);
  for (int i = 0; i < 1000; ++i) {
    const SoupEngine& soup = engines[static_cast<size_t>(i % 2)];
    const std::string page =
        i % 10 == 1 ? page_a : RandomSoupPage(&rng, soup.engine->language());
    soup.engine->Extract("other", page, scratch.get());
  }
  EXPECT_EQ(ja.Extract("a", page_a, scratch.get()), fresh);
}

TEST(ExtractionEngineTest, RealCrfEngineMatchesBatchApply) {
  // Train a real CRF on synthetic data, persist model + resources, load
  // them back into an engine and hold it byte-identical to the batch
  // apply path on a fresh crawl.
  datagen::GeneratorConfig gen;
  gen.num_products = 200;
  gen.seed = 42;
  auto crawl =
      datagen::GenerateCategory(datagen::CategoryId::kVacuumCleaner, gen);
  core::ProcessedCorpus corpus = core::IngestCorpus(crawl.corpus, {}).corpus;

  core::PipelineConfig config;
  config.iterations = 1;
  config.crf.max_iterations = 30;
  config.train_final_model = true;
  config.seed = 7;
  core::Pipeline pipeline(config);
  auto trained = pipeline.Run(corpus);
  ASSERT_TRUE(trained.ok());
  ASSERT_NE(trained.value().final_tagger, nullptr);
  auto* crf_tagger = dynamic_cast<crf::CrfTagger*>(
      trained.value().final_tagger.get());
  ASSERT_NE(crf_tagger, nullptr);

  const auto dir =
      std::filesystem::path(::testing::TempDir()) / "serve_crf_engine";
  std::filesystem::create_directories(dir);
  const std::string model_path = (dir / "model.paez").string();
  ASSERT_TRUE(core::PackModelArtifact(*crf_tagger, model_path).ok());
  ASSERT_TRUE(core::SaveCorpus(crawl.corpus, dir.string()).ok());

  core::EngineOptions engine_options;
  engine_options.min_span_confidence = 0.5;
  auto engine = core::LoadCrfEngine(model_path, dir.string(),
                                    engine_options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Fresh crawl, same category: the serving path must equal the batch
  // path page for page (veto rules off — they are corpus-level
  // statistics, not a serving-time concept).
  datagen::GeneratorConfig fresh = gen;
  fresh.num_products = 40;
  fresh.seed = 4242;
  auto crawl_b =
      datagen::GenerateCategory(datagen::CategoryId::kVacuumCleaner, fresh);
  // The engine tokenizes with the deployed (training-time) resources, so
  // the batch side must process the fresh pages with the same lexicons —
  // each crawl's own lexicon only covers the words it happened to emit.
  core::Corpus fresh_pages = crawl_b.corpus;
  fresh_pages.tokenizer_lexicon = crawl.corpus.tokenizer_lexicon;
  fresh_pages.pos_lexicon = crawl.corpus.pos_lexicon;
  core::ProcessedCorpus corpus_b = core::IngestCorpus(fresh_pages, {}).corpus;

  core::ApplyOptions batch_options;
  batch_options.min_span_confidence = 0.5;
  batch_options.veto_rules = false;
  std::vector<core::Triple> batch =
      core::ExtractWithModel(*crf_tagger, corpus_b, batch_options);

  auto scratch = core::ExtractionEngine::NewScratch();
  std::vector<core::Triple> served;
  for (const auto& page : crawl_b.corpus.pages) {
    std::vector<core::Triple> one = engine.value()->Extract(
        page.product_id, page.html, scratch.get());
    served.insert(served.end(), one.begin(), one.end());
  }
  // Mirror the engine's accepted_pairs (read from model.paez.pairs when
  // present) in the batch options for an apples-to-apples comparison.
  core::ApplyOptions paired = batch_options;
  paired.accepted_pairs = engine.value()->options().accepted_pairs;
  std::vector<core::Triple> batch_paired =
      core::ExtractWithModel(*crf_tagger, corpus_b, paired);
  EXPECT_EQ(served, batch_paired);
  ASSERT_FALSE(served.empty());
  (void)batch;
}

// ---------------------------------------------------------------------
// In-process server smoke

TEST(ServerSmokeTest, TwoHundredRequestsOneSwapCleanShutdown) {
  serve::ServerOptions options;
  options.unix_path = TestSocketPath("pae_serve_smoke.sock");
  options.workers = 4;
  serve::Server server(options);
  ASSERT_TRUE(server.Start().ok());
  server.Publish(MakeStubEngine("色1"));

  const std::vector<core::Triple> expected_gen1 =
      BatchReference("p1", "色1");
  const std::vector<core::Triple> expected_gen2 =
      BatchReference("p1", "色2");

  auto client = serve::Client::ConnectUnixSocket(options.unix_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  int gen1_seen = 0;
  int gen2_seen = 0;
  for (int i = 0; i < 200; ++i) {
    if (i == 100) server.Publish(MakeStubEngine("色2"));
    auto response = client.value().Extract("p1", kPageHtml);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response.value().generation == 1) {
      EXPECT_EQ(response.value().triples, expected_gen1);
      ++gen1_seen;
    } else {
      ASSERT_EQ(response.value().generation, 2u);
      EXPECT_EQ(response.value().triples, expected_gen2);
      ++gen2_seen;
    }
  }
  EXPECT_GT(gen1_seen, 0);
  EXPECT_GT(gen2_seen, 0);

  auto ping = client.value().Ping();
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping.value().generation, 2u);
  EXPECT_EQ(ping.value().model_name, "gen-色2");

  auto stats = client.value().Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats.value().requests, 201u);
  EXPECT_EQ(stats.value().hot_swaps, 1u);
  EXPECT_EQ(stats.value().protocol_errors, 0u);

  ASSERT_TRUE(client.value().Shutdown().ok());
  server.WaitUntilStopRequested();
  server.Stop();
  EXPECT_FALSE(server.running());
}

// Loopback TCP must not wait on the peer's delayed-ACK timer (~40 ms
// on Linux). A frame written as two segments (length word, then
// payload) holds the payload back under Nagle's algorithm until the
// length word is ACKed, so every request and every response would
// stall; the p50 bound is half the timer.
TEST(ServerSmokeTest, TcpRequestsDoNotWaitOnDelayedAck) {
  serve::ServerOptions options;
  options.tcp_port = 0;
  options.workers = 2;
  serve::Server server(options);
  ASSERT_TRUE(server.Start().ok());
  server.Publish(MakeStubEngine("色"));
  auto client =
      serve::Client::ConnectTcpSocket("127.0.0.1", server.tcp_port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const std::vector<core::Triple> expected = BatchReference("p1", "色");
  std::vector<double> latencies_ms;
  for (int i = 0; i < 200; ++i) {
    const auto begin = std::chrono::steady_clock::now();
    auto response = client.value().Extract("p1", kPageHtml);
    latencies_ms.push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - begin)
                               .count());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().triples, expected);
  }
  std::nth_element(latencies_ms.begin(),
                   latencies_ms.begin() + latencies_ms.size() / 2,
                   latencies_ms.end());
  EXPECT_LT(latencies_ms[latencies_ms.size() / 2], 20.0);
  server.Stop();
}

TEST(ServerSmokeTest, ExtractBeforePublishFailsPrecondition) {
  serve::ServerOptions options;
  options.unix_path = TestSocketPath("pae_serve_empty.sock");
  options.workers = 1;
  serve::Server server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = serve::Client::ConnectUnixSocket(options.unix_path);
  ASSERT_TRUE(client.ok());
  auto response = client.value().Extract("p1", kPageHtml);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
  // The connection survives an application-level error.
  EXPECT_TRUE(client.value().Ping().ok());
  server.Stop();
}

// Served bytes must not depend on how many clients are concurrent: the
// same request list, sent from one client thread and from eight, gets
// the same response payload for every request.
TEST(ServerSmokeTest, ResponsesIdenticalAtOneAndEightClientThreads) {
  serve::ServerOptions server_options;
  server_options.unix_path = TestSocketPath("pae_serve_concurrent.sock");
  server_options.workers = 8;
  serve::Server server(server_options);
  ASSERT_TRUE(server.Start().ok());
  server.Publish(MakeStubEngine("色"));

  // Pages that yield a triple, a negated sentence and no match at all.
  const std::vector<std::string> pages = {
      kPageHtml, "<p>色は赤ではありません。</p>", "<p>色は青です。</p>",
      "<p>赤。</p><p>青は赤です。</p>"};
  std::vector<std::string> requests;
  Rng rng(99);
  constexpr uint64_t kProducts = 7;
  for (int i = 0; i < 400; ++i) {
    const uint64_t product = serve::NURand(7, 3, kProducts, rng);
    requests.push_back(serve::EncodeExtractRequest(
        {"p" + std::to_string(product), pages[product % pages.size()]}));
  }

  auto serve_all = [&](size_t threads) {
    std::vector<std::string> responses(requests.size());
    std::vector<std::thread> clients;
    for (size_t t = 0; t < threads; ++t) {
      clients.emplace_back([&, t] {
        auto client =
            serve::Client::ConnectUnixSocket(server_options.unix_path);
        ASSERT_TRUE(client.ok()) << client.status().ToString();
        for (size_t i = t; i < requests.size(); i += threads) {
          auto response = client.value().RoundTrip(requests[i]);
          ASSERT_TRUE(response.ok()) << response.status().ToString();
          responses[i] = std::move(response.value());
        }
      });
    }
    for (std::thread& client : clients) client.join();
    return responses;
  };
  const std::vector<std::string> single = serve_all(1);
  const std::vector<std::string> eight = serve_all(8);
  server.Stop();

  ASSERT_EQ(single.size(), eight.size());
  size_t with_triples = 0;
  for (size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i], eight[i]) << "request " << i;
    auto decoded = serve::DecodeExtractResponse(single[i], "p");
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    if (!decoded.value().triples.empty()) ++with_triples;
  }
  EXPECT_GT(with_triples, 0u);
  EXPECT_LT(with_triples, single.size());
}

// ---------------------------------------------------------------------
// Load-shape helpers: perfbench draws its request stream with NURand
// and sums TripleHash into every output checksum.

TEST(ServeHelpersTest, NURandStaysInRangeAndSkews) {
  Rng rng(7);
  std::vector<int> histogram(16, 0);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = serve::NURand(15, 3, 16, rng);
    ASSERT_LT(v, 16u);
    ++histogram[static_cast<size_t>(v)];
  }
  // The OR of two uniform draws biases toward indices with more set
  // bits: index 15 must be drawn far more often than index 0.
  EXPECT_GT(histogram[(15 + 3) % 16], histogram[(0 + 3) % 16] * 2);
}

TEST(ServeHelpersTest, TripleHashIsPinned) {
  // Golden values: a change here changes every perfbench checksum.
  EXPECT_EQ(serve::TripleHash({"p1", "色", "赤"}), 0x0e4a8cddf1188501ULL);
  EXPECT_EQ(serve::TripleHash({"B00042", "capacity", "0.5L"}),
            0xc808c7cda80c7ed9ULL);
  // The field separator keeps shifted boundaries apart.
  EXPECT_NE(serve::TripleHash({"ab", "c", "v"}),
            serve::TripleHash({"a", "bc", "v"}));
}

}  // namespace
}  // namespace pae
