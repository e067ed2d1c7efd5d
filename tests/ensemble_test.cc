// Ensemble tagger (CRF ∘ BiLSTM combinations) and confidence-scored
// prediction / span-confidence filtering.

#include <gtest/gtest.h>

#include <memory>

#include "core/bootstrap.h"
#include "core/ensemble.h"
#include "core/eval.h"
#include "core/ingest.h"
#include "crf/crf_tagger.h"
#include "datagen/generator.h"
#include "lstm/bilstm_tagger.h"
#include "util/rng.h"

namespace pae {
namespace {

/// A deterministic fake tagger that emits a fixed label sequence with a
/// fixed confidence, regardless of input.
class FakeTagger : public text::SequenceTagger {
 public:
  FakeTagger(std::vector<std::string> labels, double confidence)
      : labels_(std::move(labels)), confidence_(confidence) {}

  Status Train(const std::vector<text::LabeledSequence>&) override {
    return Status::Ok();
  }
  std::vector<std::string> Predict(
      const text::LabeledSequence& seq) const override {
    std::vector<std::string> out = labels_;
    out.resize(seq.tokens.size(), text::kOutsideLabel);
    return out;
  }
  ScoredPrediction PredictScored(
      const text::LabeledSequence& seq) const override {
    ScoredPrediction out;
    out.labels = Predict(seq);
    out.confidence.assign(out.labels.size(), confidence_);
    return out;
  }
  std::string Name() const override { return "fake"; }

 private:
  std::vector<std::string> labels_;
  double confidence_;
};

text::LabeledSequence FourTokens() {
  text::LabeledSequence seq;
  seq.tokens = {"t0", "t1", "t2", "t3"};
  seq.pos = {"NN", "NN", "NN", "NN"};
  return seq;
}

TEST(EnsembleTest, IntersectionKeepsOnlyAgreedSpans) {
  auto a = std::make_unique<FakeTagger>(
      std::vector<std::string>{"B-x", "I-x", "O", "B-y"}, 0.9);
  auto b = std::make_unique<FakeTagger>(
      std::vector<std::string>{"B-x", "I-x", "O", "O"}, 0.8);
  core::EnsembleTagger ensemble(std::move(a), std::move(b),
                                core::EnsembleMode::kIntersection);
  std::vector<std::string> labels = ensemble.Predict(FourTokens());
  EXPECT_EQ(labels,
            (std::vector<std::string>{"B-x", "I-x", "O", "O"}));
}

TEST(EnsembleTest, IntersectionRequiresIdenticalBoundaries) {
  auto a = std::make_unique<FakeTagger>(
      std::vector<std::string>{"B-x", "I-x", "O", "O"}, 0.9);
  auto b = std::make_unique<FakeTagger>(
      std::vector<std::string>{"B-x", "O", "O", "O"}, 0.8);
  core::EnsembleTagger ensemble(std::move(a), std::move(b),
                                core::EnsembleMode::kIntersection);
  std::vector<std::string> labels = ensemble.Predict(FourTokens());
  // Boundaries differ → span dropped entirely.
  EXPECT_EQ(labels, (std::vector<std::string>{"O", "O", "O", "O"}));
}

TEST(EnsembleTest, IntersectionConfidenceIsMin) {
  auto a = std::make_unique<FakeTagger>(
      std::vector<std::string>{"B-x", "O", "O", "O"}, 0.9);
  auto b = std::make_unique<FakeTagger>(
      std::vector<std::string>{"B-x", "O", "O", "O"}, 0.6);
  core::EnsembleTagger ensemble(std::move(a), std::move(b),
                                core::EnsembleMode::kIntersection);
  auto scored = ensemble.PredictScored(FourTokens());
  EXPECT_NEAR(scored.confidence[0], 0.6, 1e-12);
}

TEST(EnsembleTest, UnionAddsNonOverlappingSpans) {
  auto a = std::make_unique<FakeTagger>(
      std::vector<std::string>{"B-x", "O", "O", "O"}, 0.9);
  auto b = std::make_unique<FakeTagger>(
      std::vector<std::string>{"O", "O", "B-y", "I-y"}, 0.8);
  core::EnsembleTagger ensemble(std::move(a), std::move(b),
                                core::EnsembleMode::kUnion);
  std::vector<std::string> labels = ensemble.Predict(FourTokens());
  EXPECT_EQ(labels,
            (std::vector<std::string>{"B-x", "O", "B-y", "I-y"}));
}

TEST(EnsembleTest, UnionFirstMemberWinsOverlaps) {
  auto a = std::make_unique<FakeTagger>(
      std::vector<std::string>{"B-x", "I-x", "O", "O"}, 0.9);
  auto b = std::make_unique<FakeTagger>(
      std::vector<std::string>{"O", "B-y", "I-y", "O"}, 0.8);
  core::EnsembleTagger ensemble(std::move(a), std::move(b),
                                core::EnsembleMode::kUnion);
  std::vector<std::string> labels = ensemble.Predict(FourTokens());
  EXPECT_EQ(labels,
            (std::vector<std::string>{"B-x", "I-x", "O", "O"}));
}

TEST(EnsembleTest, NameEncodesModeAndMembers) {
  core::EnsembleTagger ensemble(
      std::make_unique<crf::CrfTagger>(),
      std::make_unique<lstm::BiLstmTagger>(),
      core::EnsembleMode::kIntersection);
  EXPECT_EQ(ensemble.Name(), "ensemble-intersect(crf,bilstm)");
}

// ---------------- real models through the pipeline ----------------

struct PipelineMetrics {
  core::TripleMetrics metrics;
};

core::TripleMetrics RunModel(const datagen::GeneratedCategory& category,
                             const core::ProcessedCorpus& corpus,
                             core::ModelType model) {
  core::PipelineConfig config;
  config.model = model;
  config.iterations = 1;
  config.crf.max_iterations = 30;
  config.lstm.epochs = 3;
  config.seed = 7;
  core::Pipeline pipeline(config);
  auto result = pipeline.Run(corpus);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return core::EvaluateTriples(result.value().final_triples(),
                               category.truth, corpus.pages.size());
}

TEST(EnsembleTest, IntersectionTradesCoverageForPrecision) {
  datagen::GeneratorConfig gen;
  gen.num_products = 250;
  gen.seed = 42;
  auto category =
      datagen::GenerateCategory(datagen::CategoryId::kLadiesBags, gen);
  core::ProcessedCorpus corpus = core::IngestCorpus(category.corpus, {}).corpus;

  auto intersect =
      RunModel(category, corpus, core::ModelType::kEnsembleIntersection);
  auto united = RunModel(category, corpus, core::ModelType::kEnsembleUnion);
  // Union covers at least as much as intersection; intersection is at
  // least as precise (up to small-sample noise: allow equality).
  EXPECT_GE(united.coverage, intersect.coverage);
  EXPECT_GE(intersect.precision + 2.0, united.precision);
  EXPECT_GT(intersect.total, 0u);
}

// ---------------- confidence filtering ----------------

TEST(ConfidenceTest, CrfConfidencesAreProbabilities) {
  Rng rng(5);
  std::vector<text::LabeledSequence> data;
  for (int i = 0; i < 60; ++i) {
    text::LabeledSequence seq;
    const std::string v = std::to_string(rng.NextInt(1, 9));
    seq.tokens = {"色", "は", v, "番"};
    seq.pos = {"NN", "PRT", "NUM", "NN"};
    seq.labels = {"O", "O", "B-色", "I-色"};
    data.push_back(std::move(seq));
  }
  crf::CrfOptions options;
  options.max_iterations = 25;
  crf::CrfTagger tagger(options);
  ASSERT_TRUE(tagger.Train(data).ok());
  auto scored = tagger.PredictScored(data[0]);
  ASSERT_EQ(scored.confidence.size(), 4u);
  for (double c : scored.confidence) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0 + 1e-9);
  }
}

TEST(ConfidenceTest, ThresholdMonotonicallyReducesTriples) {
  datagen::GeneratorConfig gen;
  gen.num_products = 200;
  gen.seed = 11;
  auto category =
      datagen::GenerateCategory(datagen::CategoryId::kKitchen, gen);
  core::ProcessedCorpus corpus = core::IngestCorpus(category.corpus, {}).corpus;

  size_t previous = SIZE_MAX;
  for (double threshold : {0.0, 0.7, 0.95}) {
    core::PipelineConfig config;
    config.iterations = 1;
    config.crf.max_iterations = 30;
    config.min_span_confidence = threshold;
    config.seed = 7;
    core::Pipeline pipeline(config);
    auto result = pipeline.Run(corpus);
    ASSERT_TRUE(result.ok());
    const size_t total = core::EvaluateTriples(
        result.value().final_triples(), category.truth,
        corpus.pages.size()).total;
    EXPECT_LE(total, previous);
    previous = total;
  }
}

}  // namespace
}  // namespace pae
