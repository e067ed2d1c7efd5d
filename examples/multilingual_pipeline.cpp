// Language-independence example (§II / §IX): the identical pipeline code
// runs on an unsegmented Japanese-like corpus and on a space-separated
// German-like corpus — only the tokenizer lexicon and PoS resources
// differ, exactly the boundary the paper draws.

#include <iostream>

#include "core/bootstrap.h"
#include "core/eval.h"
#include "core/ingest.h"
#include "datagen/generator.h"
#include "util/logging.h"
#include "util/strings.h"

namespace {

void RunOne(pae::datagen::CategoryId id) {
  using namespace pae;
  datagen::GeneratorConfig gen_config;
  gen_config.num_products = 300;
  gen_config.seed = 99;
  datagen::GeneratedCategory category =
      datagen::GenerateCategory(id, gen_config);
  core::ProcessedCorpus corpus = core::IngestCorpus(category.corpus, {}).corpus;

  // One pipeline configuration for every language.
  core::PipelineConfig config;
  config.iterations = 2;
  core::Pipeline pipeline(config);
  auto result = pipeline.Run(corpus);
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return;
  }
  core::TripleMetrics metrics = core::EvaluateTriples(
      result.value().final_triples(), category.truth, corpus.pages.size());

  std::cout << "\n=== " << datagen::CategoryName(id) << " (lang="
            << text::LanguageName(corpus.language) << ") ===\n"
            << "  attributes discovered: "
            << StrJoin(result.value().seed.attributes, ", ") << "\n"
            << "  precision " << FormatDouble(metrics.precision, 2)
            << "%  coverage " << FormatDouble(metrics.coverage, 2)
            << "%  triples " << metrics.total << "\n";
  int shown = 0;
  for (const core::Triple& t : result.value().final_triples()) {
    std::cout << "    <" << t.product_id << ", " << t.attribute << ", "
              << t.value << ">\n";
    if (++shown >= 4) break;
  }
}

}  // namespace

int main() {
  pae::SetMinLogLevel(1);
  std::cout << "Same pipeline, two languages — only tokenizer + PoS\n"
            << "resources change (the paper's language-independence\n"
            << "claim, §IX).\n";
  RunOne(pae::datagen::CategoryId::kLadiesBags);   // Japanese
  RunOne(pae::datagen::CategoryId::kMailboxDe);    // German
  return 0;
}
