// Deployment example: bootstrap once on a reference crawl, persist the
// trained CRF, then tag a *new* crawl with the saved model — no
// re-bootstrapping. This is the production loop a catalog team runs
// nightly: slow calibration occasionally, fast application always.

#include <cstdio>
#include <filesystem>
#include <iostream>

#include "core/apply.h"
#include "core/bootstrap.h"
#include "core/engine.h"
#include "core/eval.h"
#include "core/ingest.h"
#include "core/model_artifact.h"
#include "crf/crf_tagger.h"
#include "datagen/generator.h"
#include "util/logging.h"
#include "util/strings.h"

int main() {
  using namespace pae;
  SetMinLogLevel(1);

  // ---- reference crawl: bootstrap + keep the final model ----
  datagen::GeneratorConfig reference;
  reference.num_products = 300;
  reference.seed = 42;
  auto crawl_a = datagen::GenerateCategory(
      datagen::CategoryId::kBackpacks, reference);
  core::ProcessedCorpus corpus_a =
      core::IngestCorpus(crawl_a.corpus, {}).corpus;

  core::PipelineConfig config;
  config.iterations = 2;
  config.train_final_model = true;
  core::Pipeline pipeline(config);
  auto trained = pipeline.Run(corpus_a);
  if (!trained.ok()) {
    std::cerr << trained.status().ToString() << "\n";
    return 1;
  }
  std::cout << "bootstrap: " << trained.value().final_triples().size()
            << " triples, " << trained.value().known_pair_keys.size()
            << " accepted <attribute, value> pairs\n";

  // ---- compact, then persist as a `.paez` artifact ----
  const std::string model_path =
      (std::filesystem::temp_directory_path() / "backpacks.paez").string();
  auto* crf = dynamic_cast<crf::CrfTagger*>(
      trained.value().final_tagger.get());
  if (crf == nullptr) {
    std::cerr << "the final model is not a CRF\n";
    return 1;
  }
  const size_t dropped = crf->Compact();  // shed L1 zero-weight features
  if (!core::PackModelArtifact(*crf, model_path).ok()) {
    std::cerr << "could not persist the model\n";
    return 1;
  }
  std::cout << "persisted " << model_path << " (compacted " << dropped
            << " dead features)\n";

  // ---- fresh crawl: load + apply ----
  datagen::GeneratorConfig fresh = reference;
  fresh.num_products = 150;
  fresh.seed = 20260706;
  auto crawl_b =
      datagen::GenerateCategory(datagen::CategoryId::kBackpacks, fresh);
  core::ProcessedCorpus corpus_b =
      core::IngestCorpus(crawl_b.corpus, {}).corpus;

  auto loaded = core::LoadCrfModel(model_path);
  if (!loaded.ok()) {
    std::cerr << "could not load the model\n";
    return 1;
  }
  core::ApplyOptions apply;
  apply.min_span_confidence = 0.5;
  apply.accepted_pairs.insert(trained.value().known_pair_keys.begin(),
                              trained.value().known_pair_keys.end());
  std::vector<core::Triple> triples =
      core::ExtractWithModel(*loaded.value().tagger, corpus_b, apply);

  core::TripleMetrics metrics = core::EvaluateTriples(
      triples, crawl_b.truth, corpus_b.pages.size());
  std::cout << "apply on fresh crawl: " << triples.size()
            << " triples, precision " << FormatDouble(metrics.precision, 2)
            << "%, coverage " << FormatDouble(metrics.coverage, 2) << "%\n";
  for (size_t i = 0; i < triples.size() && i < 5; ++i) {
    std::cout << "  <" << triples[i].product_id << ", "
              << triples[i].attribute << ", " << triples[i].value << ">\n";
  }
  std::remove(model_path.c_str());
  return 0;
}
