// Extension example: running the PAE pipeline on a corpus the library
// has never seen — hand-written product pages for a tiny "Wine" category
// — to show what a downstream adopter supplies: raw HTML pages, a query
// log, and (for unsegmented languages) tokenizer/PoS resources. Also
// demonstrates model choice (CRF vs BiLSTM) through one interface.

#include <iostream>
#include <string>
#include <vector>

#include "core/bootstrap.h"
#include "core/eval.h"
#include "core/ingest.h"
#include "util/logging.h"
#include "util/strings.h"

namespace {

/// Builds a small hand-written German-style wine catalog. Half the pages
/// carry dictionary spec tables (the seed source), the rest only free
/// text — the situation the bootstrap exists for.
pae::core::Corpus BuildWineCorpus() {
  pae::core::Corpus corpus;
  corpus.category = "Wine";
  corpus.language = pae::text::Language::kDe;

  const std::vector<std::string> grapes = {"Riesling", "Spätburgunder",
                                           "Müller-Thurgau", "Silvaner",
                                           "Dornfelder"};
  const std::vector<std::string> regions = {"Mosel", "Pfalz", "Rheingau",
                                            "Baden", "Nahe"};
  const std::vector<std::string> years = {"2018", "2019", "2020", "2021"};

  int id = 0;
  for (int i = 0; i < 60; ++i) {
    const std::string& grape = grapes[static_cast<size_t>(i) % grapes.size()];
    const std::string& region =
        regions[static_cast<size_t>(i) % regions.size()];
    const std::string& year = years[static_cast<size_t>(i) % years.size()];
    const std::string alcohol =
        std::to_string(11 + i % 4) + "," + std::to_string(i % 10) + " %";

    std::string html = "<html><body><h1>Wein Nr. " + std::to_string(i) +
                       "</h1><div>";
    html += "<p>Rebsorte : " + grape + " .</p>";
    html += "<p>Die Region ist " + region + " .</p>";
    if (i % 3 == 0) {
      html += "<p>Der Alkoholgehalt beträgt " + alcohol + " .</p>";
    }
    html += "<p>Jahrgang : " + year + " .</p>";
    html += "</div>";
    if (i % 2 == 0) {  // dictionary table on half the pages
      html += "<table>";
      html += "<tr><th>Rebsorte</th><td>" + grape + "</td></tr>";
      html += "<tr><th>Region</th><td>" + region + "</td></tr>";
      html += "<tr><th>Jahrgang</th><td>" + year + "</td></tr>";
      html += "</table>";
    }
    html += "</body></html>";

    pae::core::ProductPage page;
    page.product_id = "wine_" + std::to_string(id++);
    page.html = std::move(html);
    corpus.pages.push_back(std::move(page));
  }

  // Users search grapes and regions.
  for (const auto& g : grapes) corpus.query_log.push_back(g);
  for (const auto& r : regions) corpus.query_log.push_back(r);
  return corpus;
}

void RunWith(pae::core::ModelType model,
             const pae::core::ProcessedCorpus& corpus) {
  pae::core::PipelineConfig config;
  config.model = model;
  config.iterations = 2;
  config.preprocess.value_min_count = 2;  // tiny corpus
  config.lstm.epochs = 8;
  pae::core::Pipeline pipeline(config);
  auto result = pipeline.Run(corpus);
  if (!result.ok()) {
    std::cerr << "  " << pae::core::ModelTypeName(model)
              << " failed: " << result.status().ToString() << "\n";
    return;
  }
  std::cout << "\n[" << pae::core::ModelTypeName(model) << "] attributes: "
            << pae::StrJoin(result.value().seed.attributes, ", ") << "\n";
  int shown = 0;
  for (const auto& t : result.value().final_triples()) {
    std::cout << "  <" << t.product_id << ", " << t.attribute << ", "
              << t.value << ">\n";
    if (++shown >= 8) break;
  }
  std::cout << "  ... " << result.value().final_triples().size()
            << " triples total\n";
}

}  // namespace

int main() {
  pae::SetMinLogLevel(1);
  std::cout << "Custom 60-page 'Wine' catalog — no generator involved.\n";
  pae::core::Corpus corpus = BuildWineCorpus();
  pae::core::ProcessedCorpus processed =
      pae::core::IngestCorpus(corpus, {}).corpus;
  RunWith(pae::core::ModelType::kCrf, processed);
  RunWith(pae::core::ModelType::kBiLstm, processed);
  return 0;
}
