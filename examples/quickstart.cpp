// Quickstart: generate a small synthetic e-commerce category, run one
// bootstrap cycle of the PAE pipeline with a CRF tagger, and print the
// evaluation metrics of §VI-C.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <iostream>

#include "core/bootstrap.h"
#include "core/eval.h"
#include "core/ingest.h"
#include "datagen/generator.h"
#include "util/logging.h"
#include "util/strings.h"

int main() {
  using namespace pae;

  // 1. Generate a synthetic "Vacuum Cleaner" corpus (product pages,
  //    query log, language resources) plus the evaluation truth sample.
  datagen::GeneratorConfig gen_config;
  gen_config.num_products = 300;
  gen_config.seed = 42;
  datagen::GeneratedCategory category =
      datagen::GenerateCategory(datagen::CategoryId::kVacuumCleaner,
                                gen_config);
  std::cout << "Generated " << category.corpus.pages.size()
            << " product pages, " << category.corpus.query_log.size()
            << " queries, " << category.truth.entries.size()
            << " truth entries\n";

  // 2. Parse / tokenize / PoS-tag every page.
  core::ProcessedCorpus corpus = core::IngestCorpus(category.corpus, {}).corpus;

  // 3. Configure one bootstrap cycle with the CRF tagger.
  core::PipelineConfig config;
  config.model = core::ModelType::kCrf;
  config.iterations = 1;
  config.seed = 7;

  core::Pipeline pipeline(config);
  Result<core::PipelineResult> result = pipeline.Run(corpus);
  if (!result.ok()) {
    std::cerr << "pipeline failed: " << result.status().ToString() << "\n";
    return 1;
  }
  const core::PipelineResult& r = result.value();

  // 4. Report.
  std::cout << "\nSeed: " << r.seed.pairs.size() << " <attribute, value> pairs"
            << " (" << r.seed.pairs_added_by_diversification
            << " added by diversification) across "
            << r.seed.attributes.size() << " attributes\n";
  std::cout << "Attributes discovered: "
            << StrJoin(r.seed.attributes, ", ") << "\n";

  core::TripleMetrics seed_metrics = core::EvaluateTriples(
      r.seed_triples, category.truth, corpus.pages.size());
  std::cout << "\nSeed stage:   precision=" << FormatDouble(
                   seed_metrics.precision, 2)
            << "% coverage=" << FormatDouble(seed_metrics.coverage, 2)
            << "% triples=" << seed_metrics.total << "\n";

  core::TripleMetrics metrics = core::EvaluateTriples(
      r.final_triples(), category.truth, corpus.pages.size());
  std::cout << "After 1 iter: precision=" << FormatDouble(metrics.precision, 2)
            << "% coverage=" << FormatDouble(metrics.coverage, 2)
            << "% triples=" << metrics.total
            << " (correct=" << metrics.correct
            << " incorrect=" << metrics.incorrect
            << " maybe=" << metrics.maybe_incorrect
            << " unjudged=" << metrics.unjudged << ")\n";

  // 5. A few extracted triples.
  std::cout << "\nSample extracted triples:\n";
  int shown = 0;
  for (const core::Triple& t : r.final_triples()) {
    std::cout << "  <" << t.product_id << ", " << t.attribute << ", "
              << t.value << ">\n";
    if (++shown >= 8) break;
  }
  return 0;
}
