// Domain example: extracting the challenging Digital Camera attributes
// the paper studies in §VIII-C — shutter speed (complex value formats
// like "1/4000秒〜30秒"), effective pixels (confusable with total
// pixels, thousands separators), and weight — and comparing a global
// model against a specialized per-attribute-subset model (§VIII-D).

#include <iostream>
#include <vector>

#include "core/bootstrap.h"
#include "core/eval.h"
#include "core/ingest.h"
#include "datagen/generator.h"
#include "util/logging.h"
#include "util/strings.h"

namespace {

pae::core::TripleMetrics EvaluateAttribute(
    const pae::datagen::GeneratedCategory& category,
    const std::vector<pae::core::Triple>& triples,
    const std::string& attribute, size_t num_products) {
  std::vector<pae::core::Triple> filtered;
  for (const pae::core::Triple& t : triples) {
    if (category.truth.Canonical(t.attribute) == attribute) {
      filtered.push_back(t);
    }
  }
  return pae::core::EvaluateTriples(filtered, category.truth, num_products);
}

}  // namespace

int main() {
  using namespace pae;
  SetMinLogLevel(1);

  datagen::GeneratorConfig gen_config;
  gen_config.num_products = 400;
  gen_config.seed = 2024;
  datagen::GeneratedCategory cameras =
      datagen::GenerateCategory(datagen::CategoryId::kDigitalCameras,
                                gen_config);
  core::ProcessedCorpus corpus = core::IngestCorpus(cameras.corpus, {}).corpus;
  std::cout << "Digital Cameras corpus: " << corpus.pages.size()
            << " product pages\n";

  const std::vector<std::string> targets = {"シャッタースピード",
                                            "有効画素数", "重量"};

  // Global model over the full attribute set.
  core::PipelineConfig global_config;
  global_config.iterations = 2;
  core::Pipeline global_pipeline(global_config);
  auto global = global_pipeline.Run(corpus);
  if (!global.ok()) {
    std::cerr << global.status().ToString() << "\n";
    return 1;
  }

  // Specialized model restricted to the three hard attributes.
  core::PipelineConfig special_config = global_config;
  special_config.preprocess.attribute_filter = targets;
  core::Pipeline special_pipeline(special_config);
  auto special = special_pipeline.Run(corpus);
  if (!special.ok()) {
    std::cerr << special.status().ToString() << "\n";
    return 1;
  }

  std::cout << "\nPer-attribute results (global → specialized model):\n";
  for (const std::string& attribute : targets) {
    core::TripleMetrics g = EvaluateAttribute(
        cameras, global.value().final_triples(), attribute,
        corpus.pages.size());
    core::TripleMetrics s = EvaluateAttribute(
        cameras, special.value().final_triples(), attribute,
        corpus.pages.size());
    std::cout << "  " << attribute << ": coverage "
              << FormatDouble(g.coverage, 1) << "% → "
              << FormatDouble(s.coverage, 1) << "%,  precision "
              << FormatDouble(g.precision, 1) << "% → "
              << FormatDouble(s.precision, 1) << "%\n";
  }

  std::cout << "\nSample shutter-speed values extracted:\n";
  int shown = 0;
  for (const core::Triple& t : special.value().final_triples()) {
    if (cameras.truth.Canonical(t.attribute) != "シャッタースピード") {
      continue;
    }
    std::cout << "  <" << t.product_id << ", " << t.attribute << ", "
              << t.value << ">\n";
    if (++shown >= 6) break;
  }
  if (shown == 0) {
    std::cout << "  (none at this corpus scale — rerun with more "
                 "products)\n";
  }
  return 0;
}
