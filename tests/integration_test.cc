// End-to-end tests: synthetic corpus → full bootstrap pipeline →
// evaluation, asserting the qualitative shapes the paper reports.

#include <gtest/gtest.h>

#include "core/bootstrap.h"
#include "core/eval.h"
#include "core/ingest.h"
#include "datagen/generator.h"

namespace pae {
namespace {

using core::ModelType;
using core::Pipeline;
using core::PipelineConfig;
using core::PipelineResult;
using core::TripleMetrics;

datagen::GeneratedCategory Generate(datagen::CategoryId id, int products,
                                    uint64_t seed = 42) {
  datagen::GeneratorConfig config;
  config.num_products = products;
  config.seed = seed;
  return datagen::GenerateCategory(id, config);
}

PipelineConfig BaseConfig(int iterations = 1) {
  PipelineConfig config;
  config.model = ModelType::kCrf;
  config.iterations = iterations;
  config.crf.max_iterations = 40;
  config.seed = 7;
  return config;
}

struct RunOutput {
  PipelineResult result;
  TripleMetrics metrics;
};

RunOutput RunPipeline(const datagen::GeneratedCategory& category,
              const PipelineConfig& config) {
  core::ProcessedCorpus corpus = core::IngestCorpus(category.corpus, {}).corpus;
  Pipeline pipeline(config);
  Result<PipelineResult> result = pipeline.Run(corpus);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  RunOutput out{std::move(result).value(), {}};
  out.metrics = core::EvaluateTriples(out.result.final_triples(),
                                      category.truth, corpus.pages.size());
  return out;
}

TEST(PipelineIntegrationTest, SeedIsHighPrecision) {
  auto category = Generate(datagen::CategoryId::kLadiesBags, 250);
  auto out = RunPipeline(category, BaseConfig(0));
  TripleMetrics seed = core::EvaluateTriples(
      out.result.seed_triples, category.truth, category.corpus.pages.size());
  // Table I: seed precision is high (≈ 93–99 %) with modest coverage.
  EXPECT_GT(seed.precision, 88.0);
  EXPECT_GT(seed.coverage, 10.0);
  EXPECT_LT(seed.coverage, 70.0);
}

TEST(PipelineIntegrationTest, BootstrapRaisesCoverageALot) {
  auto category = Generate(datagen::CategoryId::kVacuumCleaner, 250);
  auto out = RunPipeline(category, BaseConfig(1));
  TripleMetrics seed = core::EvaluateTriples(
      out.result.seed_triples, category.truth, category.corpus.pages.size());
  // The whole point of bootstrapping (§VII-A): coverage multiplies.
  EXPECT_GT(out.metrics.coverage, seed.coverage * 1.8);
  // While precision stays high.
  EXPECT_GT(out.metrics.precision, 80.0);
}

TEST(PipelineIntegrationTest, CleaningImprovesPrecision) {
  // Drift compounds over cycles (Fig. 3), so the gap is asserted after
  // the full five Tagger–Cleaner cycles (as in Table IV bottom).
  auto category = Generate(datagen::CategoryId::kGarden, 300);
  PipelineConfig with = BaseConfig(5);
  PipelineConfig without = BaseConfig(5);
  without.syntactic_cleaning = false;
  without.semantic_cleaning = false;
  auto metrics_with = RunPipeline(category, with).metrics;
  auto metrics_without = RunPipeline(category, without).metrics;
  // Table IV: removing the cleaning modules costs precision on Garden.
  EXPECT_GT(metrics_with.precision, metrics_without.precision);
  // And cleaning costs some coverage (Fig. 3).
  EXPECT_LE(metrics_with.total, metrics_without.total);
}

TEST(PipelineIntegrationTest, TriplesGrowAcrossIterations) {
  auto category = Generate(datagen::CategoryId::kKitchen, 200);
  auto out = RunPipeline(category, BaseConfig(3));
  ASSERT_EQ(out.result.triples_after.size(), 3u);
  EXPECT_GE(out.result.triples_after[1].size(),
            out.result.triples_after[0].size());
  EXPECT_GE(out.result.triples_after[2].size(),
            out.result.triples_after[1].size());
}

TEST(PipelineIntegrationTest, DiversificationRecoversDecimalWeights) {
  // §VIII-A: without diversification the integer-only seed mis-bounds
  // decimal weights; with it, decimal values enter the seed.
  auto category = Generate(datagen::CategoryId::kVacuumCleaner, 300);
  PipelineConfig with = BaseConfig(1);
  PipelineConfig without = BaseConfig(1);
  without.preprocess.enable_diversification = false;

  core::ProcessedCorpus corpus = core::IngestCorpus(category.corpus, {}).corpus;
  core::Seed seed_with = core::BuildSeed(corpus, with.preprocess);
  core::Seed seed_without = core::BuildSeed(corpus, without.preprocess);

  auto decimal_weight_values = [](const core::Seed& seed) {
    int n = 0;
    for (const auto& pair : seed.pairs) {
      if (pair.attribute != "重量") continue;
      if (pair.value_display.find('.') != std::string::npos) ++n;
    }
    return n;
  };
  EXPECT_EQ(decimal_weight_values(seed_without), 0);
  EXPECT_GT(decimal_weight_values(seed_with), 0);
  EXPECT_GT(seed_with.pairs_added_by_diversification, 0u);
}

TEST(PipelineIntegrationTest, VetoRulesDiscardRoughlyTenPercent) {
  auto category = Generate(datagen::CategoryId::kDigitalCameras, 250);
  auto out = RunPipeline(category, BaseConfig(1));
  ASSERT_FALSE(out.result.iteration_stats.empty());
  const auto& stats = out.result.iteration_stats[0];
  // §VIII-B: veto rules discard around 10 % of first-iteration
  // candidates. Allow a generous band.
  const double rate = stats.cleaning.input > 0
                          ? 100.0 * static_cast<double>(
                                        stats.cleaning.vetoed()) /
                                static_cast<double>(stats.cleaning.input)
                          : 0.0;
  EXPECT_GT(rate, 2.0);
  EXPECT_LT(rate, 40.0);
}

TEST(PipelineIntegrationTest, SpecializedModelRaisesAttributeCoverage) {
  // §VIII-D / Fig. 7: a model restricted to a low-coverage attribute
  // subset raises that attribute's coverage.
  auto category = Generate(datagen::CategoryId::kDigitalCameras, 250);
  core::ProcessedCorpus corpus = core::IngestCorpus(category.corpus, {}).corpus;

  PipelineConfig global = BaseConfig(1);
  Pipeline global_pipeline(global);
  auto global_result = global_pipeline.Run(corpus);
  ASSERT_TRUE(global_result.ok());

  PipelineConfig specialized = BaseConfig(1);
  specialized.preprocess.attribute_filter = {"シャッタースピード",
                                             "有効画素数", "重量"};
  Pipeline specialized_pipeline(specialized);
  auto specialized_result = specialized_pipeline.Run(corpus);
  ASSERT_TRUE(specialized_result.ok());

  auto global_coverage = core::PerAttributeCoverage(
      global_result.value().final_triples(), category.truth,
      corpus.pages.size());
  auto special_coverage = core::PerAttributeCoverage(
      specialized_result.value().final_triples(), category.truth,
      corpus.pages.size());
  // The specialized model must at least match the global model on its
  // target attributes in aggregate.
  const double global_sum = global_coverage["シャッタースピード"] +
                            global_coverage["有効画素数"] +
                            global_coverage["重量"];
  const double special_sum = special_coverage["シャッタースピード"] +
                             special_coverage["有効画素数"] +
                             special_coverage["重量"];
  EXPECT_GE(special_sum, global_sum * 0.9);
  EXPECT_GT(special_sum, 0.0);
}

TEST(PipelineIntegrationTest, HeterogeneousCategoryHurtsPrecision) {
  // §VIII-E: Baby Goods (heterogeneous) < Baby Carriers (homogeneous).
  auto carriers = Generate(datagen::CategoryId::kBabyCarriers, 250, 11);
  auto goods = Generate(datagen::CategoryId::kBabyGoods, 250, 11);
  auto carriers_metrics = RunPipeline(carriers, BaseConfig(1)).metrics;
  auto goods_metrics = RunPipeline(goods, BaseConfig(1)).metrics;
  EXPECT_GT(carriers_metrics.precision, goods_metrics.precision);
}

TEST(PipelineIntegrationTest, BiLstmPipelineRuns) {
  auto category = Generate(datagen::CategoryId::kLadiesBags, 150);
  PipelineConfig config = BaseConfig(1);
  config.model = ModelType::kBiLstm;
  config.lstm.epochs = 2;
  auto out = RunPipeline(category, config);
  EXPECT_GT(out.metrics.total, 0u);
  EXPECT_GT(out.metrics.precision, 60.0);
}

TEST(PipelineIntegrationTest, GermanCategoryWorksEndToEnd) {
  auto category = Generate(datagen::CategoryId::kMailboxDe, 250);
  auto out = RunPipeline(category, BaseConfig(1));
  // §VII-B: German results are comparable to Japanese.
  EXPECT_GT(out.metrics.precision, 75.0);
  EXPECT_GT(out.metrics.coverage, 20.0);
}

TEST(PipelineIntegrationTest, DeterministicAcrossRuns) {
  auto category = Generate(datagen::CategoryId::kShoes, 150);
  auto a = RunPipeline(category, BaseConfig(1));
  auto b = RunPipeline(category, BaseConfig(1));
  EXPECT_EQ(a.metrics.total, b.metrics.total);
  EXPECT_EQ(a.metrics.correct, b.metrics.correct);
}

TEST(PipelineIntegrationTest, NegationFilteringDropsNegatedMentions) {
  // Definition 3.1: negated sentences must not yield triples. The
  // filter can only remove triples, and what it removes is judged
  // error mass, so precision must not get worse.
  auto category = Generate(datagen::CategoryId::kKitchen, 300);
  PipelineConfig with = BaseConfig(1);
  PipelineConfig without = BaseConfig(1);
  without.negation_filtering = false;
  auto m_with = RunPipeline(category, with).metrics;
  auto m_without = RunPipeline(category, without).metrics;
  EXPECT_LE(m_with.total, m_without.total);
  EXPECT_GE(m_with.precision, m_without.precision);
}

TEST(PipelineIntegrationTest, EmptyCorpusFailsGracefully) {
  core::Corpus corpus;
  corpus.language = text::Language::kJa;
  core::ProcessedCorpus processed = core::IngestCorpus(corpus, {}).corpus;
  Pipeline pipeline(BaseConfig(1));
  auto result = pipeline.Run(processed);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace pae
