// Model-load benchmark behind scripts/bench_model_load.sh: the legacy
// BinaryReader parse vs the mmap'ed `.paez` artifact (checksum-verified
// first touch and warm structural open), the bytes each path copies,
// and the int8-embedding cleaning gate (one bootstrap iteration with
// f32 vs quantized semantic-cleaning vectors on the golden corpus).
//
//   bench_model_load --model m.crf --paez m.paez [--iterations 50]
//                    [--json OUT | -] [--skip-int8-gate]
//   bench_model_load --make-model m.crf --make-features N
//                    [--make-labels L] [--make-seed S]
//
// The --make-model mode writes a synthetic legacy model at production
// scale (the bundled datagen corpora train only ~1.5k features; field
// deployments carry hundreds of thousands), with feature strings shaped
// exactly like the real extractor's (`w[d]=`, `pos[d]=`, `sent=`) and
// deterministic pseudo-weights. Both formats then serve the same bytes,
// so the parse-vs-mmap comparison stays apples to apples.
//
// All non-timing fields are deterministic for a fixed model + seed, so
// two runs on the same commit must agree on everything but the seconds.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/bootstrap.h"
#include "core/ingest.h"
#include "core/model_artifact.h"
#include "crf/crf_tagger.h"
#include "datagen/generator.h"
#include "tools/args.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/serial.h"
#include "util/strings.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

struct TimingStats {
  double first = 0;  // iteration 0 (cold path: pages not yet touched)
  double min = 0;    // fastest warm iteration
  double mean = 0;   // over the warm iterations
};

/// Times `fn` once cold and `iterations` more warm times.
template <typename Fn>
TimingStats Time(int iterations, Fn fn) {
  TimingStats stats;
  {
    const auto begin = Clock::now();
    fn();
    stats.first = Seconds(begin, Clock::now());
  }
  std::vector<double> warm;
  warm.reserve(static_cast<size_t>(iterations));
  for (int i = 0; i < iterations; ++i) {
    const auto begin = Clock::now();
    fn();
    warm.push_back(Seconds(begin, Clock::now()));
  }
  stats.min = *std::min_element(warm.begin(), warm.end());
  double sum = 0;
  for (const double w : warm) sum += w;
  stats.mean = sum / static_cast<double>(warm.size());
  return stats;
}

void AppendStats(std::ostringstream* json, const std::string& key,
                 const TimingStats& stats) {
  *json << "  \"" << key << "\": {\n"
        << "    \"first_seconds\": " << pae::FormatDouble(stats.first, 9)
        << ",\n    \"min_seconds\": " << pae::FormatDouble(stats.min, 9)
        << ",\n    \"mean_seconds\": " << pae::FormatDouble(stats.mean, 9)
        << "\n  },\n";
}

int64_t CounterValue(const char* name) {
  return pae::util::MetricsRegistry::Global().GetCounter(name)->value();
}

/// One bootstrap iteration on the golden corpus with the given
/// semantic-cleaning quantization mode; returns the extracted triples.
std::vector<pae::core::Triple> RunCleaningArm(bool quantize_int8) {
  pae::datagen::GeneratorConfig generator;
  generator.num_products = 120;
  generator.seed = 42;
  auto crawl = pae::datagen::GenerateCategory(
      pae::datagen::CategoryId::kVacuumCleaner, generator);
  pae::core::ProcessedCorpus corpus =
      pae::core::IngestCorpus(crawl.corpus, {}).corpus;

  pae::core::PipelineConfig config;
  config.iterations = 1;
  config.crf.max_iterations = 25;
  config.seed = 7;
  config.semantic.quantize_int8 = quantize_int8;
  pae::core::Pipeline pipeline(config);
  auto result = pipeline.Run(corpus);
  PAE_CHECK(result.ok()) << result.status().ToString();
  return result.value().final_triples();
}

// Matches the private constants in crf/crf_tagger.cc; the mode below
// Load()s the file it wrote, so a drift in either value fails loudly.
constexpr uint32_t kCrfMagic = 0x43524631;  // "CRF1"
constexpr uint32_t kCrfVersion = 1;

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Writes a synthetic legacy model with `num_features` features and
/// `num_labels` BIO labels directly in the CrfTagger::Save wire format,
/// then round-trips it through CrfTagger::Load as a self-check.
int MakeModel(const std::string& path, int num_features, int num_labels,
              uint64_t seed) {
  static const char* kAttrs[] = {"weight",   "width", "height", "depth",
                                 "capacity", "power", "noise"};
  static const char* kPos[] = {"NN", "NUM", "UNIT", "PRT", "VB", "ADJ", "SYM"};
  std::vector<std::string> labels;
  labels.emplace_back("O");
  for (size_t a = 0; static_cast<int>(labels.size()) < num_labels; ++a) {
    const std::string attr = kAttrs[a % (sizeof(kAttrs) / sizeof(*kAttrs))] +
                             (a < 7 ? "" : std::to_string(a / 7));
    labels.push_back("B-" + attr);
    if (static_cast<int>(labels.size()) < num_labels) {
      labels.push_back("I-" + attr);
    }
  }

  uint64_t rng = seed;
  std::vector<std::string> features;
  features.reserve(static_cast<size_t>(num_features));
  // The real extractor emits word-identity features in a window, PoS
  // features, a PoS n-gram, and a sentence-length bucket; cycle through
  // the same shapes with a synthetic vocabulary.
  for (int f = 0; f < num_features; ++f) {
    const int d = f % 5 - 2;  // window offset in [-2, 2]
    const uint64_t r = SplitMix64(&rng);
    std::string feat;
    switch (f % 7) {
      case 0:
      case 1:
      case 2:
      case 3:
        // Unique via the feature index; key length varies like real words.
        feat = "w[" + std::to_string(d) + "]=tok" + std::to_string(f) +
               std::string(r % 7, 'x');
        break;
      case 4:
        feat = "pos[" + std::to_string(d) + "]=" + kPos[r % 7] + "_" +
               std::to_string(f);
        break;
      case 5:
        feat = std::string("posgram=") + kPos[r % 7] + "|" + kPos[(r >> 8) % 7] +
               "|" + std::to_string(f);
        break;
      default:
        feat = "sent=" + std::to_string(f);
        break;
    }
    features.push_back(std::move(feat));
  }

  const size_t L = static_cast<size_t>(num_labels);
  const size_t dim = static_cast<size_t>(num_features) * L + L * L + 2 * L;
  std::vector<double> weights(dim, 0.0);
  for (size_t i = 0; i < dim; ++i) {
    const uint64_t r = SplitMix64(&rng);
    // OWL-QN's L1 penalty leaves trained models sparse; mimic ~60%
    // exact zeros with small nonzero weights elsewhere.
    if (r % 10 < 6) continue;
    weights[i] = (static_cast<double>(r % 2001) - 1000.0) / 2000.0;
  }

  pae::BinaryWriter writer(path, kCrfMagic, kCrfVersion);
  writer.WriteI32(2);   // window
  writer.WriteI32(40);  // max_sentence_bucket
  writer.WriteDouble(0.1);  // c1
  writer.WriteDouble(1.0);  // c2
  writer.WriteStringVec(labels);
  writer.WriteStringVec(features);
  writer.WriteDoubleVec(weights);
  const pae::Status finish = writer.Finish();
  PAE_CHECK(finish.ok()) << finish.ToString();

  pae::crf::CrfTagger check;
  const pae::Status loaded = check.Load(path);
  PAE_CHECK(loaded.ok()) << loaded.ToString();
  PAE_CHECK_EQ(check.model().num_features(),
               static_cast<size_t>(num_features));
  std::cerr << "wrote " << path << ": " << labels.size() << " labels, "
            << features.size() << " features, " << dim << " weights ("
            << std::filesystem::file_size(path) << " bytes)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  pae::tools::Args args(argc, argv);
  const std::string make_path = args.GetString("make-model", "");
  if (!make_path.empty()) {
    return MakeModel(make_path, args.GetInt("make-features", 200000),
                     args.GetInt("make-labels", 15),
                     static_cast<uint64_t>(args.GetInt("make-seed", 1)));
  }
  const std::string model_path = args.GetString("model", "");
  const std::string paez_path = args.GetString("paez", "");
  if (model_path.empty() || paez_path.empty()) {
    std::cerr << "usage: bench_model_load --model m.crf --paez m.paez\n"
              << "                        [--iterations N] [--json OUT|-]\n"
              << "                        [--skip-int8-gate]\n"
              << "       bench_model_load --make-model m.crf\n"
              << "                        [--make-features N] [--make-labels L]"
              << "\n";
    return 2;
  }
  const int iterations = args.GetInt("iterations", 50);

  // --- legacy parse: every table copied into fresh allocations ---
  const int64_t legacy_copied_before = CounterValue("model.load.bytes_copied");
  const TimingStats legacy = Time(iterations, [&] {
    pae::crf::CrfTagger tagger;
    PAE_CHECK(tagger.Load(model_path).ok());
  });
  const int64_t legacy_bytes_copied =
      (CounterValue("model.load.bytes_copied") - legacy_copied_before) /
      (iterations + 1);

  // --- paez first touch: checksum-verified open reads every page, the
  // pack-time integrity pass an operator runs once per artifact ---
  const TimingStats first_touch = Time(iterations, [&] {
    pae::core::ModelArtifact::OpenOptions verify;
    verify.verify_checksums = true;
    auto artifact = pae::core::ModelArtifact::Open(paez_path, verify);
    PAE_CHECK(artifact.ok()) << artifact.status().ToString();
  });

  // --- paez warm: the serving hot path (structural validation only,
  // model bound in place) ---
  const int64_t paez_copied_before = CounterValue("model.load.bytes_copied");
  const TimingStats warm = Time(iterations, [&] {
    auto artifact = pae::core::ModelArtifact::Open(paez_path);
    PAE_CHECK(artifact.ok()) << artifact.status().ToString();
    auto packed = pae::core::MakePackedCrfModel(std::move(artifact).value());
    PAE_CHECK(packed.ok()) << packed.status().ToString();
    pae::crf::CrfTagger tagger;
    PAE_CHECK(tagger.LoadPacked(std::move(packed).value()).ok());
  });
  const int64_t paez_bytes_copied =
      (CounterValue("model.load.bytes_copied") - paez_copied_before) /
      (iterations + 1);

  auto artifact = pae::core::ModelArtifact::Open(paez_path);
  PAE_CHECK(artifact.ok());
  const auto& meta = artifact.value()->crf_meta();

  // --- int8 cleaning gate ---
  std::string int8_block;
  if (!args.Has("skip-int8-gate")) {
    const std::vector<pae::core::Triple> f32 = RunCleaningArm(false);
    const std::vector<pae::core::Triple> int8 = RunCleaningArm(true);
    std::ostringstream block;
    block << "  \"int8_cleaning_gate\": {\n"
          << "    \"triples_f32\": " << f32.size() << ",\n"
          << "    \"triples_int8\": " << int8.size() << ",\n"
          << "    \"decisions_unchanged\": "
          << (f32 == int8 ? "true" : "false") << "\n  },\n";
    int8_block = block.str();
  }

  const double speedup = legacy.min / warm.min;
  std::ostringstream json;
  json << "{\n  \"version\": 1,\n  \"benchmark\": \"model-load\",\n"
       << "  \"iterations\": " << iterations << ",\n"
       << "  \"model\": {\n"
       << "    \"legacy_bytes\": "
       << std::filesystem::file_size(model_path) << ",\n"
       << "    \"paez_bytes\": " << std::filesystem::file_size(paez_path)
       << ",\n"
       << "    \"labels\": " << meta.num_labels << ",\n"
       << "    \"features\": " << meta.num_features << ",\n"
       << "    \"weights\": " << meta.weight_count << "\n  },\n";
  AppendStats(&json, "legacy_parse", legacy);
  AppendStats(&json, "paez_first_touch_verified", first_touch);
  AppendStats(&json, "paez_warm_mmap", warm);
  json << "  \"bytes_copied_per_load\": {\n"
       << "    \"legacy\": " << legacy_bytes_copied << ",\n"
       << "    \"paez\": " << paez_bytes_copied << "\n  },\n"
       << int8_block
       << "  \"warm_speedup_vs_legacy\": " << pae::FormatDouble(speedup, 1)
       << "\n}\n";

  const std::string json_path = args.GetString("json", "-");
  if (json_path == "-") {
    std::cout << json.str();
  } else {
    std::ofstream out(json_path, std::ios::trunc);
    out << json.str();
    if (!out) {
      std::cerr << "failed writing " << json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << json_path << "\n";
  }
  std::cerr << "legacy min " << legacy.min * 1e3 << " ms, paez warm min "
            << warm.min * 1e6 << " us, speedup " << speedup << "x\n";
  return 0;
}
