#include "experiment_lib.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "math/kernels.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace pae::bench {

BenchOptions BenchOptions::FromEnv(int default_products) {
  BenchOptions options;
  options.num_products = default_products;
  // Bench drivers read their environment once on the main thread at
  // startup, before spawning workers — no concurrent setenv exists.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("PAE_PRODUCTS")) {
    options.num_products = std::atoi(env);
  }
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("PAE_SEED")) {
    options.seed = static_cast<uint64_t>(std::atoll(env));
  }
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("PAE_THREADS")) {
    options.threads = std::max(0, std::atoi(env));
  }
  return options;
}

core::PipelineConfig CrfConfig(int iterations, bool cleaning) {
  core::PipelineConfig config;
  config.model = core::ModelType::kCrf;
  config.iterations = iterations;
  config.crf.max_iterations = 40;
  config.syntactic_cleaning = cleaning;
  config.semantic_cleaning = cleaning;
  config.seed = 7;
  return config;
}

core::PipelineConfig RnnConfig(int iterations, int epochs, bool cleaning) {
  core::PipelineConfig config;
  config.model = core::ModelType::kBiLstm;
  config.iterations = iterations;
  config.lstm.epochs = epochs;
  config.syntactic_cleaning = cleaning;
  config.semantic_cleaning = cleaning;
  config.seed = 7;
  return config;
}

const PreparedCategory& Prepare(datagen::CategoryId id,
                                const BenchOptions& options) {
  static auto* cache = new std::map<std::pair<int, uint64_t>,
                                    std::unique_ptr<PreparedCategory>>();
  const auto key = std::make_pair(static_cast<int>(id), options.seed);
  auto it = cache->find(key);
  if (it == cache->end()) {
    datagen::GeneratorConfig generator_config;
    generator_config.num_products = options.num_products;
    generator_config.seed = options.seed;
    auto prepared = std::make_unique<PreparedCategory>();
    prepared->generated = datagen::GenerateCategory(id, generator_config);
    prepared->corpus =
        core::IngestCorpus(prepared->generated.corpus, {options.threads})
            .corpus;
    it = cache->emplace(key, std::move(prepared)).first;
  }
  return *it->second;
}

core::PipelineResult RunPipeline(const PreparedCategory& category,
                                 const core::PipelineConfig& config) {
  core::Pipeline pipeline(config);
  Result<core::PipelineResult> result = pipeline.Run(category.corpus);
  if (!result.ok()) {
    std::cerr << "pipeline failed on " << category.corpus.category << ": "
              << result.status().ToString() << "\n";
    std::exit(1);
  }
  return std::move(result).value();
}

core::TripleMetrics Evaluate(const PreparedCategory& category,
                             const std::vector<core::Triple>& triples) {
  return core::EvaluateTriples(triples, category.generated.truth,
                               category.num_products());
}

std::string PaperVsMeasured(double paper, double measured, int digits) {
  return FormatDouble(paper, digits) + " / " +
         FormatDouble(measured, digits);
}

void PrintHeader(const std::string& title, const BenchOptions& options) {
  std::cout << "####################################################\n"
            << "# " << title << "\n"
            << "# corpus: " << options.num_products
            << " products/category (synthetic, seed=" << options.seed
            << ", threads="
            << util::ThreadPool::ResolveThreads(options.threads) << ")\n"
            << "# Cells show: paper / measured. Absolute numbers come\n"
            << "# from a synthetic substitute corpus; the reproduction\n"
            << "# target is the SHAPE (orderings, gaps, crossovers).\n"
            << "####################################################\n";
}

void MaybeWriteMetricsReport() {
  // Main-thread read after the benchmark's workers have joined.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* path = std::getenv("PAE_METRICS_OUT");
  if (path == nullptr || path[0] == '\0') return;
  // Stamp the SIMD dispatch decision right before snapshotting: gauges
  // set at startup would not survive a MetricsRegistry::Reset().
  math::kernels::RecordSimdMetrics();
  const util::RunReport report = util::MetricsRegistry::Global().Snapshot();
  Status status = report.WriteJsonFile(path);
  if (!status.ok()) {
    std::cerr << "PAE_METRICS_OUT: " << status.ToString() << "\n";
    return;
  }
  if (std::string(path) != "-") {
    std::cout << "metrics report -> " << path << "\n";
  }
}

}  // namespace pae::bench#include "core/ingest.h"

