// Failure injection and adversarial-input robustness: fuzzed HTML,
// corrupt model files, hostile corpus content, degenerate pipeline
// inputs. Nothing here may crash; errors must surface as Status.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/bootstrap.h"
#include "core/engine.h"
#include "core/eval.h"
#include "core/ingest.h"
#include "core/model_artifact.h"
#include "crf/crf_tagger.h"
#include "datagen/generator.h"
#include "html/parser.h"
#include "support/oracle.h"
#include "text/sentence.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace pae {
namespace {

namespace fs = std::filesystem;

// ---------------- HTML fuzzing ----------------

class HtmlFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(HtmlFuzzTest, RandomBytesNeverCrashParser) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 977 + 13);
  std::string soup;
  const std::string alphabet = "<>/abc=\"' &#;タグ表！１２";
  for (int i = 0; i < 400; ++i) {
    soup += alphabet[rng.NextBounded(alphabet.size())];
  }
  auto dom = html::ParseHtml(soup);
  ASSERT_NE(dom, nullptr);
  // Downstream consumers must also survive.
  std::string text = html::ExtractText(*dom);
  auto tables = oracle::ExtractDictionaryTables(*dom);
  auto sentences = text::SplitSentences(text);
  text::CjkTokenizer tokenizer({});
  for (const auto& sentence : sentences) tokenizer.Tokenize(sentence);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HtmlFuzzTest, ::testing::Range(0, 16));

TEST(HtmlFuzzTest, MutatedRealPagesNeverCrash) {
  datagen::GeneratorConfig config;
  config.num_products = 20;
  config.seed = 3;
  datagen::GeneratedCategory category =
      datagen::GenerateCategory(datagen::CategoryId::kGarden, config);
  Rng rng(99);
  for (const auto& page : category.corpus.pages) {
    std::string mutated = page.html;
    for (int m = 0; m < 25 && !mutated.empty(); ++m) {
      const size_t pos = rng.NextBounded(mutated.size());
      switch (rng.NextBounded(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.NextBounded(256));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, '<');
          break;
      }
    }
    auto dom = html::ParseHtml(mutated);
    ASSERT_NE(dom, nullptr);
    html::ExtractText(*dom);
    oracle::ExtractDictionaryTables(*dom);
  }
}

TEST(HtmlFuzzTest, DeeplyNestedMarkup) {
  std::string html;
  for (int i = 0; i < 2000; ++i) html += "<div>";
  html += "x";
  auto dom = html::ParseHtml(html);
  ASSERT_NE(dom, nullptr);
  EXPECT_NE(html::ExtractText(*dom).find('x'), std::string::npos);
}

TEST(HtmlFuzzTest, GiantAttributeSoup) {
  std::string html = "<div " + std::string(10000, 'a') + ">body</div>";
  auto dom = html::ParseHtml(html);
  EXPECT_NE(html::ExtractText(*dom).find("body"), std::string::npos);
}

// ---------------- corrupt model files ----------------

TEST(CorruptModelTest, GarbageFileRejected) {
  const std::string path =
      (fs::temp_directory_path() / "pae_garbage.paez").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a model file at all, sorry";
  }
  Result<core::LoadedCrfModel> model = core::LoadCrfModel(path);
  EXPECT_FALSE(model.ok());
  std::remove(path.c_str());
}

TEST(CorruptModelTest, BitFlippedModelDoesNotCrash) {
  Rng rng(5);
  std::vector<text::LabeledSequence> data;
  for (int i = 0; i < 40; ++i) {
    text::LabeledSequence seq;
    seq.tokens = {"a", std::to_string(rng.NextInt(0, 9))};
    seq.pos = {"NN", "NUM"};
    seq.labels = {"O", "B-x"};
    data.push_back(std::move(seq));
  }
  crf::CrfOptions options;
  options.max_iterations = 10;
  crf::CrfTagger tagger(options);
  ASSERT_TRUE(tagger.Train(data).ok());
  const std::string path =
      (fs::temp_directory_path() / "pae_bitflip.paez").string();
  ASSERT_TRUE(core::PackModelArtifact(tagger, path).ok());

  // Flip bytes anywhere past the magic and load the way the serving
  // path does: payload checksums off, so a flip inside a section reaches
  // the packed tagger instead of being caught by its checksum.
  for (int trial = 0; trial < 8; ++trial) {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    const auto size = fs::file_size(path);
    const uint64_t pos = 8 + rng.NextBounded(size - 8);
    file.seekp(static_cast<std::streamoff>(pos));
    char byte = static_cast<char>(rng.NextBounded(256));
    file.write(&byte, 1);
    file.close();
    // Either loads (benign flip) or fails with a Status — never crashes.
    Result<core::LoadedCrfModel> victim = core::LoadCrfModel(path);
    if (victim.ok()) {
      text::LabeledSequence probe;
      probe.tokens = {"a", "5"};
      probe.pos = {"NN", "NUM"};
      victim.value().tagger->Predict(probe);
    }
  }
  std::remove(path.c_str());
}

// ---------------- hostile corpus content ----------------

TEST(HostileCorpusTest, PipelineSurvivesAdversarialPages) {
  core::Corpus corpus;
  corpus.language = text::Language::kJa;
  corpus.tokenizer_lexicon = {"重量", "です"};
  const char* nasty[] = {
      "",                                        // empty page
      "plain text, no markup at all 重量5kg",    // no HTML
      "<table><tr><td>重量</td></tr></table>",   // 1-column table
      "<<<<<>>>>>",                              // tag soup
      "<table><tr><th>重量</th><td>5kg</td></tr>"
      "<tr><th>色</th><td>赤</td></tr></table>", // one real table
      "\xFF\xFE broken utf8 \x80\x80",           // invalid bytes
  };
  int id = 0;
  for (const char* html : nasty) {
    core::ProductPage page;
    page.product_id = "hostile_" + std::to_string(id++);
    page.html = html;
    corpus.pages.push_back(std::move(page));
  }
  core::ProcessedCorpus processed = core::IngestCorpus(corpus, {}).corpus;
  EXPECT_EQ(processed.pages.size(), corpus.pages.size());

  core::PipelineConfig config;
  config.iterations = 1;
  config.preprocess.value_min_count = 1;
  config.crf.max_iterations = 5;
  core::Pipeline pipeline(config);
  // One dictionary table exists, so the seed may or may not form; both
  // a clean result and a clean error are acceptable — a crash is not.
  auto result = pipeline.Run(processed);
  if (result.ok()) {
    EXPECT_GE(result.value().seed.pairs.size(), 1u);
  }
}

TEST(HostileCorpusTest, HugeSingleSentenceIsHandled) {
  core::Corpus corpus;
  corpus.language = text::Language::kDe;
  core::ProductPage page;
  page.product_id = "big";
  std::string body;
  for (int i = 0; i < 5000; ++i) body += "wort ";
  page.html = "<p>" + body + "</p>";
  corpus.pages.push_back(std::move(page));
  core::ProcessedCorpus processed = core::IngestCorpus(corpus, {}).corpus;
  ASSERT_EQ(processed.pages.size(), 1u);
  ASSERT_FALSE(processed.pages[0].sentences.empty());
  EXPECT_EQ(processed.pages[0].sentences[0].tokens.size(), 5000u);
}

// ---------------- thread-count knob ----------------

core::ProcessedCorpus SmallThreadTestCorpus() {
  datagen::GeneratorConfig config;
  config.num_products = 40;
  config.seed = 21;
  datagen::GeneratedCategory category =
      datagen::GenerateCategory(datagen::CategoryId::kGarden, config);
  return core::IngestCorpus(category.corpus, {}).corpus;
}

TEST(ThreadKnobTest, NegativeThreadsRejectedWithStatus) {
  const core::ProcessedCorpus corpus = SmallThreadTestCorpus();
  core::PipelineConfig config;
  config.iterations = 1;
  config.crf.max_iterations = 5;
  config.threads = -2;
  core::Pipeline pipeline(config);
  auto result = pipeline.Run(corpus);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("threads"), std::string::npos);
}

TEST(ThreadKnobTest, ZeroThreadsMeansAutoAndRunsCleanly) {
  const core::ProcessedCorpus corpus = SmallThreadTestCorpus();
  core::PipelineConfig config;
  config.iterations = 1;
  config.crf.max_iterations = 5;
  config.threads = 0;  // auto: all hardware threads
  core::Pipeline pipeline(config);
  auto result = pipeline.Run(corpus);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().final_triples().empty());
}

TEST(ThreadKnobTest, NegativeThreadsClampWhereNoStatusChannelExists) {
  // IngestCorpus and ApplyOptions have no Status channel; negative
  // values clamp to 1 instead of being UB.
  datagen::GeneratorConfig config;
  config.num_products = 5;
  config.seed = 22;
  datagen::GeneratedCategory category =
      datagen::GenerateCategory(datagen::CategoryId::kGarden, config);
  const core::ProcessedCorpus corpus =
      core::IngestCorpus(category.corpus, {-7}).corpus;
  EXPECT_EQ(corpus.pages.size(), category.corpus.pages.size());
}

// ---------------- evaluator oracle metrics ----------------

TEST(OracleTest, RecallCountsDistinctCorrectTriples) {
  core::TruthSample truth;
  auto add = [&](const char* pid, const char* attr, const char* value,
                 bool correct) {
    core::TruthEntry e;
    e.triple = {pid, attr, value};
    e.triple_correct = correct;
    truth.entries.push_back(e);
  };
  add("p1", "色", "赤", true);
  add("p1", "重量", "5kg", true);
  add("p2", "色", "青", true);
  add("p2", "色", "偽", false);  // incorrect entries don't count

  std::vector<core::Triple> found = {
      {"p1", "色", "赤"},
      {"p9", "色", "緑"},  // not in truth
  };
  core::OracleMetrics m = core::EvaluateOracleRecall(found, truth);
  EXPECT_EQ(m.truth_triples, 3u);
  EXPECT_EQ(m.recalled, 1u);
  EXPECT_NEAR(m.recall, 100.0 / 3.0, 1e-9);
  EXPECT_NEAR(m.recall_by_attribute["色"], 50.0, 1e-9);
  EXPECT_NEAR(m.recall_by_attribute["重量"], 0.0, 1e-9);
}

TEST(OracleTest, AttributeDiscovery) {
  core::TruthSample truth;
  truth.attribute_aliases = {
      {"カラー", "カラー"}, {"色", "カラー"}, {"重量", "重量"}};
  core::AttributeDiscoveryMetrics m = core::EvaluateAttributeDiscovery(
      {"色", "カラー", "備考"}, truth);
  EXPECT_EQ(m.truth_attributes, 2u);  // カラー, 重量
  EXPECT_EQ(m.discovered, 1u);        // カラー (via both surfaces)
  EXPECT_EQ(m.spurious, 1u);          // 備考
  EXPECT_NEAR(m.recall, 50.0, 1e-9);
}

}  // namespace
}  // namespace pae
