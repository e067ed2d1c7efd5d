// CLI: pae-model-pack, the `.paez` artifact inspector. Validates an
// artifact written by PackModelArtifact (pae-extract --save-model) with
// every payload checksum, and prints its contents.
//
//   pae-model-pack --check m.paez            (validate + checksums only)
//   pae-model-pack --info m.paez             (print the section table)

#include <iostream>
#include <string>

#include "args.h"
#include "core/model_artifact.h"

namespace {

int Usage() {
  std::cerr << "usage: pae-model-pack --check m.paez\n"
            << "       pae-model-pack --info m.paez\n";
  return 2;
}

const char* SectionKindName(uint32_t kind) {
  switch (kind) {
    case pae::core::kCrfMeta: return "crf-meta";
    case pae::core::kCrfLabels: return "crf-labels";
    case pae::core::kCrfFeatureSlots: return "crf-feature-slots";
    case pae::core::kCrfFeatureKeys: return "crf-feature-keys";
    case pae::core::kCrfFeatureArena: return "crf-feature-arena";
    case pae::core::kCrfWeights: return "crf-weights";
    default: return "?";
  }
}

/// Full open with payload checksums — the whole job of --check.
int Verify(const std::string& path, bool print_table) {
  pae::core::ModelArtifact::OpenOptions options;
  options.verify_checksums = true;
  auto artifact = pae::core::ModelArtifact::Open(path, options);
  if (!artifact.ok()) {
    std::cerr << artifact.status().ToString() << "\n";
    return 1;
  }
  const pae::core::ModelArtifact& a = *artifact.value();
  std::cout << path << ": paez v" << a.header().version << ", "
            << a.file_bytes() << " bytes, " << a.sections().size()
            << " sections, crf " << a.crf_meta().num_labels << " labels / "
            << a.crf_meta().num_features << " features / "
            << a.crf_meta().weight_count << " weights\n";
  if (print_table) {
    for (const pae::core::PaezSection& s : a.sections()) {
      std::cout << "  " << SectionKindName(s.kind) << " offset=" << s.offset
                << " length=" << s.length << " align=" << s.align << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  pae::tools::Args args(argc, argv);
  if (args.Has("check")) return Verify(args.GetString("check", ""), false);
  if (args.Has("info")) return Verify(args.GetString("info", ""), true);
  return Usage();
}
