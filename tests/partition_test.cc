// Attribute-partition planner (§VIII-D future work).

#include <gtest/gtest.h>

#include <unordered_set>

#include "core/ingest.h"
#include "core/partition.h"
#include "datagen/generator.h"

namespace pae {
namespace {

core::ProcessedCorpus Corpus(datagen::CategoryId id, int products,
                             datagen::GeneratedCategory* out) {
  datagen::GeneratorConfig config;
  config.num_products = products;
  config.seed = 42;
  *out = datagen::GenerateCategory(id, config);
  return core::IngestCorpus(out->corpus, {}).corpus;
}

core::PipelineConfig FastConfig() {
  core::PipelineConfig config;
  config.crf.max_iterations = 30;
  return config;
}

TEST(PartitionTest, ProducesACompletePartition) {
  datagen::GeneratedCategory category;
  core::ProcessedCorpus corpus =
      Corpus(datagen::CategoryId::kDigitalCameras, 400, &category);
  auto plan = core::PlanAttributePartition(corpus, FastConfig(),
                                           core::PartitionOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // Every seed attribute is assigned to exactly one group.
  std::unordered_set<std::string> assigned;
  for (const auto& a : plan.value().global_group) {
    EXPECT_TRUE(assigned.insert(a).second);
  }
  for (const auto& a : plan.value().specialized_group) {
    EXPECT_TRUE(assigned.insert(a).second);
  }
  EXPECT_EQ(assigned.size(), plan.value().diagnostics.size());
  EXPECT_FALSE(plan.value().diagnostics.empty());
}

TEST(PartitionTest, DiagnosticsAreValidRates) {
  datagen::GeneratedCategory category;
  core::ProcessedCorpus corpus =
      Corpus(datagen::CategoryId::kVacuumCleaner, 300, &category);
  auto plan = core::PlanAttributePartition(corpus, FastConfig(),
                                           core::PartitionOptions{});
  ASSERT_TRUE(plan.ok());
  for (const auto& diag : plan.value().diagnostics) {
    EXPECT_GE(diag.global_recall, 0.0);
    EXPECT_LE(diag.global_recall, 1.0);
    EXPECT_GE(diag.global_precision, 0.0);
    EXPECT_LE(diag.global_precision, 1.0);
    if (!diag.tried_specialized) {
      EXPECT_FALSE(diag.assign_specialized);
    }
  }
}

TEST(PartitionTest, StrictGuardsKeepEverythingGlobal) {
  datagen::GeneratedCategory category;
  core::ProcessedCorpus corpus =
      Corpus(datagen::CategoryId::kLadiesBags, 250, &category);
  core::PartitionOptions options;
  options.min_recall_gain = 1.1;  // unsatisfiable
  auto plan =
      core::PlanAttributePartition(corpus, FastConfig(), options);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan.value().specialized_group.empty());
}

TEST(PartitionTest, DeterministicGivenSeed) {
  datagen::GeneratedCategory category;
  core::ProcessedCorpus corpus =
      Corpus(datagen::CategoryId::kDigitalCameras, 300, &category);
  auto a = core::PlanAttributePartition(corpus, FastConfig(),
                                        core::PartitionOptions{});
  auto b = core::PlanAttributePartition(corpus, FastConfig(),
                                        core::PartitionOptions{});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().specialized_group, b.value().specialized_group);
  EXPECT_EQ(a.value().global_group, b.value().global_group);
}

TEST(PartitionTest, EmptyCorpusFails) {
  core::Corpus corpus;
  corpus.language = text::Language::kJa;
  core::ProcessedCorpus processed = core::IngestCorpus(corpus, {}).corpus;
  auto plan = core::PlanAttributePartition(processed, FastConfig(),
                                           core::PartitionOptions{});
  EXPECT_FALSE(plan.ok());
}

}  // namespace
}  // namespace pae
