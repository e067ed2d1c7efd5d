// The inference-time "apply" phase: ExtractWithModel semantics and the
// end-to-end train → persist → apply-to-new-crawl flow.

#include <gtest/gtest.h>

#include <memory>

#include "core/apply.h"
#include "core/bootstrap.h"
#include "core/eval.h"
#include "core/ingest.h"
#include "core/normalize.h"
#include "datagen/generator.h"

namespace pae {
namespace {

/// Tags the literal token "赤" as B-色 with configurable confidence.
class RedTagger : public text::SequenceTagger {
 public:
  explicit RedTagger(double confidence) : confidence_(confidence) {}

  Status Train(const std::vector<text::LabeledSequence>&) override {
    return Status::Ok();
  }
  std::vector<std::string> Predict(
      const text::LabeledSequence& seq) const override {
    std::vector<std::string> labels(seq.tokens.size(), text::kOutsideLabel);
    for (size_t i = 0; i < seq.tokens.size(); ++i) {
      if (seq.tokens[i] == "赤") labels[i] = "B-色";
    }
    return labels;
  }
  ScoredPrediction PredictScored(
      const text::LabeledSequence& seq) const override {
    ScoredPrediction out;
    out.labels = Predict(seq);
    out.confidence.assign(out.labels.size(), confidence_);
    return out;
  }
  std::string Name() const override { return "red"; }

 private:
  double confidence_;
};

core::ProcessedCorpus TinyCorpus() {
  core::Corpus corpus;
  corpus.language = text::Language::kJa;
  corpus.tokenizer_lexicon = {"です", "ではありません"};
  core::ProductPage p1;
  p1.product_id = "p1";
  p1.html = "<p>色は赤です。</p>";
  core::ProductPage p2;
  p2.product_id = "p2";
  p2.html = "<p>色は赤ではありません。</p>";  // negated
  corpus.pages = {p1, p2};
  return core::IngestCorpus(corpus, {}).corpus;
}

TEST(ApplyTest, ExtractsSpansAsTriples) {
  core::ProcessedCorpus corpus = TinyCorpus();
  RedTagger tagger(0.9);
  core::ApplyOptions options;
  options.negation_filtering = false;
  std::vector<core::Triple> triples =
      core::ExtractWithModel(tagger, corpus, options);
  ASSERT_EQ(triples.size(), 2u);
  EXPECT_EQ(triples[0].attribute, "色");
  EXPECT_EQ(triples[0].value, "赤");
}

TEST(ApplyTest, NegationFilteringDropsNegatedPage) {
  core::ProcessedCorpus corpus = TinyCorpus();
  RedTagger tagger(0.9);
  core::ApplyOptions options;  // negation filtering on by default
  std::vector<core::Triple> triples =
      core::ExtractWithModel(tagger, corpus, options);
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].product_id, "p1");
}

TEST(ApplyTest, ConfidenceThresholdDropsLowConfidenceSpans) {
  core::ProcessedCorpus corpus = TinyCorpus();
  RedTagger tagger(0.4);
  core::ApplyOptions options;
  options.negation_filtering = false;
  options.min_span_confidence = 0.5;
  EXPECT_TRUE(core::ExtractWithModel(tagger, corpus, options).empty());
}

TEST(ApplyTest, AcceptedPairsActAsWhitelist) {
  core::ProcessedCorpus corpus = TinyCorpus();
  RedTagger tagger(0.9);
  core::ApplyOptions options;
  options.negation_filtering = false;
  options.accepted_pairs = {core::PairKey("色", "青")};  // not 赤
  EXPECT_TRUE(core::ExtractWithModel(tagger, corpus, options).empty());
  options.accepted_pairs = {core::PairKey("色", core::NormalizeValue("赤"))};
  EXPECT_EQ(core::ExtractWithModel(tagger, corpus, options).size(), 2u);
}

TEST(ApplyTest, DuplicateTriplesDeduplicated) {
  core::Corpus corpus;
  corpus.language = text::Language::kJa;
  corpus.tokenizer_lexicon = {"です"};
  core::ProductPage page;
  page.product_id = "p1";
  page.html = "<p>赤です。</p><p>赤です。</p>";  // two mentions
  corpus.pages = {page};
  core::ProcessedCorpus processed = core::IngestCorpus(corpus, {}).corpus;
  RedTagger tagger(0.9);
  core::ApplyOptions options;
  EXPECT_EQ(core::ExtractWithModel(tagger, processed, options).size(), 1u);
}

TEST(ApplyTest, TrainPersistApplyOnFreshCrawl) {
  // Bootstrap on crawl A, keep the final model, apply it to crawl B
  // (same category, different seed → different products).
  datagen::GeneratorConfig gen_a;
  gen_a.num_products = 250;
  gen_a.seed = 42;
  auto crawl_a = datagen::GenerateCategory(
      datagen::CategoryId::kVacuumCleaner, gen_a);
  core::ProcessedCorpus corpus_a =
      core::IngestCorpus(crawl_a.corpus, {}).corpus;

  core::PipelineConfig config;
  config.iterations = 1;
  config.crf.max_iterations = 30;
  config.train_final_model = true;
  config.seed = 7;
  core::Pipeline pipeline(config);
  auto trained = pipeline.Run(corpus_a);
  ASSERT_TRUE(trained.ok());
  ASSERT_NE(trained.value().final_tagger, nullptr);
  ASSERT_FALSE(trained.value().known_pair_keys.empty());

  datagen::GeneratorConfig gen_b = gen_a;
  gen_b.num_products = 150;
  gen_b.seed = 4242;
  auto crawl_b = datagen::GenerateCategory(
      datagen::CategoryId::kVacuumCleaner, gen_b);
  core::ProcessedCorpus corpus_b =
      core::IngestCorpus(crawl_b.corpus, {}).corpus;

  core::ApplyOptions apply;
  apply.accepted_pairs.insert(trained.value().known_pair_keys.begin(),
                              trained.value().known_pair_keys.end());
  std::vector<core::Triple> triples = core::ExtractWithModel(
      *trained.value().final_tagger, corpus_b, apply);
  ASSERT_FALSE(triples.empty());

  core::TripleMetrics metrics = core::EvaluateTriples(
      triples, crawl_b.truth, corpus_b.pages.size());
  EXPECT_GT(metrics.precision, 75.0);
  EXPECT_GT(metrics.coverage, 30.0);
}

}  // namespace
}  // namespace pae
