// Model-load benchmark behind scripts/bench_model_load.sh: opening the
// mmap'ed `.paez` artifact (checksum-verified first touch and warm
// structural open) and the bytes a load copies.
//
//   bench_model_load --paez m.paez [--iterations 50] [--json OUT | -]
//   bench_model_load --make-model m.paez --make-features N
//                    [--make-labels L] [--make-seed S]
//
// The --make-model mode packs a model at production scale (the bundled
// datagen corpora train only ~1.5k features; field deployments carry
// hundreds of thousands). It trains a real CrfTagger on synthetic
// sequences of distinct tokens, so the artifact's feature strings have
// the real template's shapes (`w[d]=`, `p[d]=`, `pwin=`, `sent=`).
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

#include "core/model_artifact.h"
#include "crf/crf_tagger.h"
#include "tools/args.h"
#include "util/logging.h"
#include "util/metrics.h"
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

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Trains and packs a field-scale model with `num_labels` BIO labels.
/// Every token is distinct and the template turns each into five word
/// features (w[-2..2]), so num_features / 5 tokens give about
/// `num_features` features, plus ~8% PoS-window ones.
/// AdaGrad for one epoch: the weights need a trained model's layout, not
/// its accuracy.
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

  // Few long sequences: training keeps one model-sized gradient buffer
  // per four sequences (up to 32), so 16 sequences bound set-up memory
  // to about eight copies of the weights.
  constexpr size_t kSequences = 16;
  std::vector<pae::text::LabeledSequence> data(kSequences);
  uint64_t rng = seed;
  const size_t tokens = static_cast<size_t>(std::max(num_features / 5, 1));
  for (size_t i = 0; i < tokens; ++i) {
    const uint64_t r = SplitMix64(&rng);
    pae::text::LabeledSequence& seq = data[i % kSequences];
    seq.tokens.push_back("tok" + std::to_string(i));
    seq.pos.emplace_back(kPos[r % 7]);
    seq.labels.push_back(labels[(r >> 8) % labels.size()]);
  }

  pae::crf::CrfOptions options;
  options.trainer = pae::crf::CrfTrainer::kAdagrad;
  options.max_iterations = 1;
  pae::crf::CrfTagger tagger(options);
  const pae::Status trained = tagger.Train(data);
  PAE_CHECK(trained.ok()) << trained.ToString();
  const pae::Status packed = pae::core::PackModelArtifact(tagger, path);
  PAE_CHECK(packed.ok()) << packed.ToString();
  std::cerr << "wrote " << path << ": " << tagger.model().num_labels()
            << " labels, " << tagger.model().num_features() << " features, "
            << tagger.weights_span().size() << " weights ("
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
  const std::string paez_path = args.GetString("paez", "");
  if (paez_path.empty()) {
    std::cerr << "usage: bench_model_load --paez m.paez\n"
              << "                        [--iterations N] [--json OUT|-]\n"
              << "       bench_model_load --make-model m.paez\n"
              << "                        [--make-features N] [--make-labels L]"
              << "\n";
    return 2;
  }
  const int iterations = args.GetInt("iterations", 50);

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

  std::ostringstream json;
  json << "{\n  \"version\": 1,\n  \"benchmark\": \"model-load\",\n"
       << "  \"iterations\": " << iterations << ",\n"
       << "  \"model\": {\n"
       << "    \"paez_bytes\": " << std::filesystem::file_size(paez_path)
       << ",\n"
       << "    \"labels\": " << meta.num_labels << ",\n"
       << "    \"features\": " << meta.num_features << ",\n"
       << "    \"weights\": " << meta.weight_count << "\n  },\n";
  AppendStats(&json, "paez_first_touch_verified", first_touch);
  AppendStats(&json, "paez_warm_mmap", warm);
  json << "  \"bytes_copied_per_load\": {\n"
       << "    \"paez\": " << paez_bytes_copied << "\n  }\n}\n";

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
  std::cerr << "paez first touch min " << first_touch.min * 1e3
            << " ms, warm min " << warm.min * 1e6 << " us\n";
  return 0;
}
