// CLI: runs the full PAE bootstrap on an on-disk corpus and writes the
// extracted <product, attribute, value> triples as TSV.
//
//   pae-extract --in /tmp/v --out /tmp/v/triples.tsv
//   pae-extract --in /tmp/v --out out.tsv --model bilstm --iterations 3
//   pae-extract --in /tmp/v --out out.tsv --eval       # score vs truth.tsv
//   pae-extract --in /tmp/v --out out.tsv --save-model m.paez
//   pae-extract --in /tmp/new --out new.tsv --apply-model m.paez
//
// Flags: --model crf|bilstm|ensemble-intersect|ensemble-union
//        --iterations N (default 5)      --seed S
//        --no-cleaning / --no-semantic / --no-syntactic / --no-negation
//        --no-diversification            --min-confidence X
//        --epochs N (BiLSTM)             --eval
//        --metrics-out report.json ("-" = stdout) --no-metrics
//        --threads N (0 = all hardware threads)
//        --save-model m.paez  packs the final CRF as a `.paez` artifact
//                             and writes the accepted pairs to
//                             m.paez.pairs (CRF only)
//        --apply-model m.paez tags the corpus with a saved model instead
//                             of bootstrapping

#include <iostream>
#include <string>

#include "args.h"
#include "core/apply.h"
#include "core/bootstrap.h"
#include "core/corpus_io.h"
#include "core/engine.h"
#include "core/eval.h"
#include "core/ingest.h"
#include "crf/crf_tagger.h"
#include "math/kernels.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/strings.h"

namespace {

/// Writes the JSON run report and prints the summary tables when
/// --metrics-out was given. Returns non-zero on write failure.
int WriteMetricsReport(const pae::tools::Args& args) {
  const std::string path = args.GetString("metrics-out", "");
  if (path.empty()) return 0;
  // Stamp the SIMD dispatch decision right before snapshotting: gauges
  // set at startup would not survive a MetricsRegistry::Reset().
  pae::math::kernels::RecordSimdMetrics();
  const pae::util::RunReport report =
      pae::util::MetricsRegistry::Global().Snapshot();
  pae::Status status = report.WriteJsonFile(path);
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n";
    return 1;
  }
  // When the JSON goes to stdout the summary must not corrupt it.
  report.PrintSummary(path == "-" ? std::cerr : std::cout);
  if (path != "-") std::cout << "metrics report -> " << path << "\n";
  return 0;
}

int Usage() {
  std::cerr << "usage: pae-extract --in <corpus dir> --out <triples.tsv>\n"
            << "                   [--model crf|bilstm|ensemble-intersect|"
               "ensemble-union]\n"
            << "                   [--iterations N] [--epochs N] [--seed S]\n"
            << "                   [--no-cleaning] [--no-semantic]\n"
            << "                   [--no-syntactic] [--no-negation]\n"
            << "                   [--no-diversification]\n"
            << "                   [--min-confidence X] [--eval]\n"
            << "                   [--metrics-out report.json]  (\"-\" =\n"
            << "                    stdout; also prints a summary table)\n"
            << "                   [--no-metrics]  (disable all metrics\n"
            << "                    collection)\n"
            << "                   [--threads N]  (0 = all hardware threads;\n"
            << "                    output is identical for every N)\n"
            << "                   [--save-model m.paez]  (CRF only; also\n"
            << "                    writes m.paez.pairs)\n"
            << "       pae-extract --in <dir> --out <tsv> --apply-model\n"
            << "                   m.paez   (tag without bootstrapping)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pae::SetMinLogLevel(1);
  pae::tools::Args args(argc, argv);
  const std::string in_dir = args.GetString("in", "");
  const std::string out_path = args.GetString("out", "");
  if (in_dir.empty() || out_path.empty()) return Usage();

  const int threads = args.GetInt("threads", 0);
  if (threads < 0) {
    std::cerr << "--threads must be >= 0 (0 = all hardware threads)\n";
    return 2;
  }
  if (args.Has("no-metrics")) {
    pae::util::MetricsRegistry::Global().set_enabled(false);
  }

  pae::core::IngestOptions ingest_options;
  ingest_options.threads = threads;
  auto ingest_result = pae::core::IngestCorpusDir(in_dir, ingest_options);
  if (!ingest_result.ok()) {
    std::cerr << ingest_result.status().ToString() << "\n";
    return 1;
  }
  const pae::core::IngestedCorpus ingested = std::move(ingest_result).value();
  const pae::core::ProcessedCorpus& corpus = ingested.corpus;
  std::cerr << "loaded " << corpus.pages.size() << " pages ("
            << corpus.category << ", "
            << pae::text::LanguageName(corpus.language) << ")\n";

  // ---- apply mode: tag with a persisted model, no bootstrap ----
  if (args.Has("apply-model")) {
    const std::string model_path = args.GetString("apply-model", "");
    auto model = pae::core::LoadCrfModel(model_path);
    if (!model.ok()) {
      std::cerr << model.status().ToString() << "\n";
      return 1;
    }
    pae::core::ApplyOptions apply;
    apply.threads = threads;
    apply.min_span_confidence = args.GetDouble("min-confidence", 0.0);
    if (args.Has("no-negation")) apply.negation_filtering = false;
    apply.accepted_pairs = std::move(model.value().accepted_pairs);
    std::vector<pae::core::Triple> triples =
        pae::core::ExtractWithModel(*model.value().tagger, corpus, apply);
    pae::Status save = pae::core::SaveTriples(triples, out_path);
    if (!save.ok()) {
      std::cerr << save.ToString() << "\n";
      return 1;
    }
    std::cout << "applied " << model_path << ": " << triples.size()
              << " triples -> " << out_path << "\n";
    if (args.Has("eval")) {
      auto truth = pae::core::LoadTruth(in_dir);
      if (truth.ok()) {
        pae::core::TripleMetrics metrics = pae::core::EvaluateTriples(
            triples, truth.value(), corpus.pages.size());
        std::cout << "precision=" << pae::FormatDouble(metrics.precision, 2)
                  << "% coverage=" << pae::FormatDouble(metrics.coverage, 2)
                  << "%\n";
      }
    }
    return WriteMetricsReport(args);
  }

  pae::core::PipelineConfig config;
  const std::string model = args.GetString("model", "crf");
  if (model == "crf") {
    config.model = pae::core::ModelType::kCrf;
  } else if (model == "bilstm") {
    config.model = pae::core::ModelType::kBiLstm;
  } else if (model == "ensemble-intersect") {
    config.model = pae::core::ModelType::kEnsembleIntersection;
  } else if (model == "ensemble-union") {
    config.model = pae::core::ModelType::kEnsembleUnion;
  } else {
    std::cerr << "unknown model '" << model << "'\n";
    return 2;
  }
  config.threads = threads;
  config.iterations = args.GetInt("iterations", 5);
  config.lstm.epochs = args.GetInt("epochs", config.lstm.epochs);
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 99));
  if (args.Has("no-cleaning")) {
    config.syntactic_cleaning = false;
    config.semantic_cleaning = false;
  }
  if (args.Has("no-semantic")) config.semantic_cleaning = false;
  if (args.Has("no-syntactic")) config.syntactic_cleaning = false;
  if (args.Has("no-negation")) config.negation_filtering = false;
  if (args.Has("no-diversification")) {
    config.preprocess.enable_diversification = false;
  }
  config.min_span_confidence = args.GetDouble("min-confidence", 0.0);
  const std::string save_model = args.GetString("save-model", "");
  if (!save_model.empty()) {
    if (config.model != pae::core::ModelType::kCrf) {
      std::cerr << "--save-model currently supports --model crf only\n";
      return 2;
    }
    config.train_final_model = true;
  }

  pae::core::Pipeline pipeline(config);
  auto result = pipeline.Run(ingested);
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }
  const auto& triples = result.value().final_triples();
  pae::Status save = pae::core::SaveTriples(triples, out_path);
  if (!save.ok()) {
    std::cerr << save.ToString() << "\n";
    return 1;
  }
  std::cout << "extracted " << triples.size() << " triples ("
            << result.value().seed.attributes.size()
            << " attributes) -> " << out_path << "\n";

  if (!save_model.empty() && result.value().final_tagger != nullptr) {
    auto* crf_tagger = dynamic_cast<pae::crf::CrfTagger*>(
        result.value().final_tagger.get());
    if (crf_tagger == nullptr) {
      std::cerr << "--save-model: final model is not a CRF\n";
      return 1;
    }
    pae::Status saved = pae::core::SaveCrfModel(
        *crf_tagger, result.value().known_pair_keys, save_model);
    if (!saved.ok()) {
      std::cerr << saved.ToString() << "\n";
      return 1;
    }
    std::cout << "saved model to " << save_model << " (+.pairs)\n";
  }

  if (args.Has("eval")) {
    auto truth = pae::core::LoadTruth(in_dir);
    if (!truth.ok()) {
      std::cerr << "--eval: " << truth.status().ToString() << "\n";
      return 1;
    }
    pae::core::TripleMetrics metrics = pae::core::EvaluateTriples(
        triples, truth.value(), corpus.pages.size());
    std::cout << "precision=" << pae::FormatDouble(metrics.precision, 2)
              << "% coverage=" << pae::FormatDouble(metrics.coverage, 2)
              << "% (correct=" << metrics.correct
              << " incorrect=" << metrics.incorrect
              << " maybe=" << metrics.maybe_incorrect
              << " unjudged=" << metrics.unjudged << ")\n";
  }
  return WriteMetricsReport(args);
}
