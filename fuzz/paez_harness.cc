#include "paez_harness.h"

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "core/model_artifact.h"
#include "crf/crf_tagger.h"

namespace pae::fuzz {

namespace {

/// 4 MiB is plenty to express every header/table/meta mutation while
/// keeping a fuzzing iteration cheap; real corpus seeds are ~100 KiB.
constexpr size_t kMaxInputBytes = 4u << 20;

/// One scratch path per process, created once. Each input overwrites it
/// in place; the file is unlinked at exit by the OS tmp reaper. mkstemp
/// (not tmpnam) so parallel fuzzers never collide.
const std::string& ScratchPath() {
  static const std::string path = [] {
    std::string tmpl = "/tmp/pae_fuzz_paez_XXXXXX";
    const int fd = ::mkstemp(tmpl.data());
    if (fd >= 0) ::close(fd);
    return tmpl;
  }();
  return path;
}

/// Every artifact accessor plus the zero-copy CRF view. The prediction
/// probe matters most: it drives StringTableView::Find against the
/// mapped (and possibly hostile) slot array, the read the
/// slot-count-overflow regression corpus entry proved could leave the
/// mapping.
void ExerciseArtifact(
    const std::shared_ptr<const core::ModelArtifact>& artifact) {
  (void)artifact->header();
  (void)artifact->sections();
  (void)artifact->crf_meta();
  for (uint32_t kind = core::kCrfMeta; kind <= core::kCrfWeights; ++kind) {
    const auto k = static_cast<core::PaezSectionKind>(kind);
    (void)artifact->SectionData(k);
    (void)artifact->SectionLength(k);
  }

  auto packed_crf = core::MakePackedCrfModel(artifact);
  if (packed_crf.ok()) {
    crf::CrfTagger tagger;
    if (tagger.LoadPacked(std::move(packed_crf).value()).ok()) {
      text::LabeledSequence probe;
      probe.tokens = {"重量", "は", "7", "kg", "です"};
      probe.pos = {"NN", "PRT", "NUM", "UNIT", "VB"};
      (void)tagger.Predict(probe);
    }
  }

}

}  // namespace

int FuzzPaezOneInput(const uint8_t* data, size_t size) {
  if (size > kMaxInputBytes) return 0;
  {
    std::ofstream out(ScratchPath(), std::ios::binary | std::ios::trunc);
    if (!out) return 0;
    if (size > 0) {
      // Two static_casts through void — not reinterpret_cast — keep the
      // aliasing lint rule meaningful everywhere outside the mmap core.
      out.write(static_cast<const char*>(static_cast<const void*>(data)),
                static_cast<std::streamsize>(size));
    }
    if (!out.flush()) return 0;
  }

  // The serving configuration first: structural validation only, the
  // exact pass the hot-swap path trusts for memory safety.
  auto serving = core::ModelArtifact::Open(ScratchPath());
  if (serving.ok()) ExerciseArtifact(serving.value());

  // Then the packer's exit-check configuration, which additionally
  // walks every payload byte for the per-section checksums.
  core::ModelArtifact::OpenOptions verify;
  verify.verify_checksums = true;
  auto checked = core::ModelArtifact::Open(ScratchPath(), verify);
  if (checked.ok()) ExerciseArtifact(checked.value());
  return 0;
}

}  // namespace pae::fuzz
