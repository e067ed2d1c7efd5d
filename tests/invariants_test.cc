// Cross-cutting invariants, property-style: facts that must hold for
// every category, seed, and configuration.

#include <gtest/gtest.h>

#include <unordered_map>

#include "core/bootstrap.h"
#include "core/eval.h"
#include "core/ingest.h"
#include "core/normalize.h"
#include "datagen/generator.h"
#include "html/parser.h"

namespace pae {
namespace {

// gtest names each case after the raw bytes of its parameter, so the
// padding between the two fields is an explicit zeroed member: left
// implicit, it holds whatever the stack held and the names drift from
// build to build.
struct Scenario {
  Scenario(datagen::CategoryId c, uint64_t s) : category(c), seed(s) {}

  datagen::CategoryId category;
  uint32_t padding = 0;
  uint64_t seed;
};
static_assert(sizeof(Scenario) == 16, "no implicit padding in Scenario");

class PipelineInvariantTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(PipelineInvariantTest, HoldsForScenario) {
  const Scenario scenario = GetParam();
  datagen::GeneratorConfig gen;
  gen.num_products = 150;
  gen.seed = scenario.seed;
  datagen::GeneratedCategory category =
      datagen::GenerateCategory(scenario.category, gen);
  core::ProcessedCorpus corpus = core::IngestCorpus(category.corpus, {}).corpus;

  core::PipelineConfig config;
  config.iterations = 1;
  config.crf.max_iterations = 25;
  config.seed = scenario.seed + 1;
  core::Pipeline pipeline(config);
  auto result = pipeline.Run(corpus);
  if (!result.ok()) {
    GTEST_SKIP() << "seed too small at this scale: "
                 << result.status().ToString();
  }

  // Normalized page text per product.
  std::unordered_map<std::string, std::string> page_text;
  for (const auto& page : category.corpus.pages) {
    auto dom = html::ParseHtml(page.html);
    page_text[page.product_id] =
        core::NormalizeValue(html::ExtractText(*dom));
  }

  const auto& triples = result.value().final_triples();

  // Invariant 1: every extracted value literally occurs on its page
  // (the system extracts, it never invents).
  for (const core::Triple& t : triples) {
    auto it = page_text.find(t.product_id);
    ASSERT_NE(it, page_text.end()) << t.product_id;
    EXPECT_NE(it->second.find(core::NormalizeValue(t.value)),
              std::string::npos)
        << "<" << t.product_id << ", " << t.attribute << ", " << t.value
        << "> not on page";
  }

  // Invariant 2: evaluation buckets partition the deduplicated output.
  core::TripleMetrics m =
      core::EvaluateTriples(triples, category.truth, corpus.pages.size());
  EXPECT_EQ(m.total,
            m.correct + m.incorrect + m.maybe_incorrect + m.unjudged);
  EXPECT_LE(m.covered_products, corpus.pages.size());
  EXPECT_GE(m.precision, 0.0);
  EXPECT_LE(m.precision, 100.0);
  EXPECT_GE(m.coverage, 0.0);
  EXPECT_LE(m.coverage, 100.0);

  // Invariant 3: oracle recall is bounded and consistent.
  core::OracleMetrics oracle =
      core::EvaluateOracleRecall(triples, category.truth);
  EXPECT_LE(oracle.recalled, oracle.truth_triples);
  EXPECT_LE(oracle.recalled, m.total);
  // Recalled triples are exactly the correct ones (a triple matching a
  // correct truth entry is judged correct, and vice versa).
  EXPECT_EQ(oracle.recalled, m.correct);

  // Invariant 4: triples never grow across iterations within a
  // snapshot's dedup key space more than the stats claim.
  for (const auto& stats : result.value().iteration_stats) {
    EXPECT_LE(stats.accepted_values, stats.candidate_values);
    EXPECT_EQ(stats.cleaning.input,
              stats.candidate_values);
  }

  // Invariant 5: seed triples come only from pages that have tables.
  std::unordered_map<std::string, bool> has_table;
  for (const auto& page : corpus.pages) {
    has_table[page.product_id] = !page.tables.empty();
  }
  for (const core::Triple& t : result.value().seed_triples) {
    EXPECT_TRUE(has_table[t.product_id])
        << "seed triple from table-less page " << t.product_id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, PipelineInvariantTest,
    ::testing::Values(
        Scenario{datagen::CategoryId::kTennis, 1},
        Scenario{datagen::CategoryId::kKitchen, 2},
        Scenario{datagen::CategoryId::kLadiesBags, 3},
        Scenario{datagen::CategoryId::kVacuumCleaner, 4},
        Scenario{datagen::CategoryId::kMailboxDe, 5},
        Scenario{datagen::CategoryId::kWine, 6},
        Scenario{datagen::CategoryId::kHeadphones, 7},
        Scenario{datagen::CategoryId::kBabyGoods, 8}),
    [](const auto& info) {
      return std::string(datagen::CategoryName(info.param.category))
                 .substr(0, 3) +
             "S" + std::to_string(info.param.seed);
    });

// Generator-level invariants over many categories/seeds.

class GeneratorInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorInvariantTest, QueryLogTermsAppearInCatalog) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const auto& all = datagen::AllCategories();
  datagen::CategoryId id = all[rng.NextBounded(all.size())];
  datagen::GeneratorConfig gen;
  gen.num_products = 80;
  gen.seed = rng.NextU64();
  gen.query_noise_fraction = 0.0;  // isolate the value-derived queries
  datagen::GeneratedCategory category = datagen::GenerateCategory(id, gen);

  std::string all_text;
  for (const auto& page : category.corpus.pages) {
    auto dom = html::ParseHtml(page.html);
    all_text += core::NormalizeValue(html::ExtractText(*dom));
  }
  for (const auto& query : category.corpus.query_log) {
    EXPECT_NE(all_text.find(core::NormalizeValue(query)),
              std::string::npos)
        << "query '" << query << "' never occurs in "
        << datagen::CategoryName(id);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorInvariantTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace pae
