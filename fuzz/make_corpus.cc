// pae-fuzz-make-corpus: regenerates the committed seed corpus under
// fuzz/corpus/. Deterministic (seeded Rng throughout), so the corpus
// can be audited by regenerating and diffing.
//
// Usage: pae-fuzz-make-corpus <output-root>
//
// Writes paez/ (valid packed artifacts + structure-aware malformed
// variants, including the slot-count-overflow regression reproducer)
// and frame/ (framed protocol requests/responses + corrupt framing).

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/model_artifact.h"
#include "crf/crf_tagger.h"
#include "paez_mutator.h"
#include "serve/protocol.h"
#include "util/rng.h"

namespace pae::fuzz {
namespace {

namespace fs = std::filesystem;

std::vector<text::LabeledSequence> TinyTrainingData() {
  Rng rng(9);
  std::vector<text::LabeledSequence> data;
  for (int i = 0; i < 80; ++i) {
    text::LabeledSequence seq;
    const std::string v = std::to_string(rng.NextInt(1, 9));
    seq.tokens = {"重量", "は", v, "kg", "です"};
    seq.pos = {"NN", "PRT", "NUM", "UNIT", "VB"};
    seq.labels = {"O", "O", "B-重量", "I-重量", "O"};
    data.push_back(std::move(seq));
  }
  return data;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out.flush()) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
}

void PatchU32(std::string* bytes, size_t offset, uint32_t value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

/// The committed reproducer for the slot-count multiplication overflow
/// in ModelArtifact::Open's expected-bytes check: feature_slot_count =
/// 2^60 makes count × sizeof(PackedStringSlot) wrap to exactly 0, so a
/// zero-length slots section matched the expected length, the
/// power-of-two shape check passed (2^60 is one), and the serving open
/// handed StringTableView a 2^60-slot table backed by zero mapped
/// bytes — Find's probe then read far outside the mapping. The
/// overflow-safe element-count check now rejects this file at Open.
std::string MakeSlotCountOverflowArtifact(std::string image) {
  const int meta_index = FindPaezSection(image, core::kCrfMeta);
  const int slots_index = FindPaezSection(image, core::kCrfFeatureSlots);
  if (meta_index < 0 || slots_index < 0) std::exit(1);

  core::PaezSection meta_section;
  ReadPaezSection(image, meta_index, &meta_section);
  core::PaezCrfMeta meta;
  if (meta_section.length != sizeof(meta)) std::exit(1);
  std::memcpy(&meta, image.data() + meta_section.offset, sizeof(meta));
  meta.feature_slot_count = 1ull << 60;
  std::memcpy(image.data() + meta_section.offset, &meta, sizeof(meta));
  RestampPaezSectionChecksum(&image, meta_index);

  core::PaezSection slots_section;
  ReadPaezSection(image, slots_index, &slots_section);
  slots_section.length = 0;
  WritePaezSection(&image, slots_index, slots_section);
  RestampPaezSectionChecksum(&image, slots_index);

  RestampPaezTableChecksum(&image);
  return image;
}

/// The seed with its first section relabelled as kind 7, which once held
/// word2vec embedding metadata. The table checksum is restamped and the
/// payload is untouched, so every checksum holds and only the
/// unknown-kind check stands between this file and a parse.
std::string MakeRetiredKindArtifact(std::string image) {
  core::PaezSection section;
  if (!ReadPaezSection(image, 0, &section)) std::exit(1);
  section.kind = 7;
  WritePaezSection(&image, 0, section);
  RestampPaezTableChecksum(&image);
  return image;
}

void WritePaezCorpus(const fs::path& dir) {
  crf::CrfOptions options;
  options.max_iterations = 15;
  crf::CrfTagger tagger(options);
  if (!tagger.Train(TinyTrainingData()).ok()) std::exit(1);

  const fs::path crf_path = dir / "seed-crf.paez";
  if (!core::PackModelArtifact(tagger, crf_path.string()).ok()) {
    std::exit(1);
  }

  const std::string seed = ReadBytes(crf_path.string());

  WriteBytes(dir / "malformed-empty.bin", "");
  WriteBytes(dir / "malformed-short-header.bin", seed.substr(0, 16));
  WriteBytes(dir / "malformed-truncated.bin",
             seed.substr(0, seed.size() * 3 / 5));

  std::string mutated = seed;
  PatchU32(&mutated, 0, 0xDEADBEEF);  // magic
  WriteBytes(dir / "malformed-bad-magic.bin", mutated);

  mutated = seed;
  PatchU32(&mutated, 4, 99);  // version
  WriteBytes(dir / "malformed-bad-version.bin", mutated);

  mutated = seed;
  PatchU32(&mutated, 12, 1000);  // section_count over kMaxSections
  WriteBytes(dir / "malformed-section-count.bin", mutated);

  mutated = seed;
  mutated[core::kPaezHeaderBytes + 8] ^= 0x40;  // table byte, no restamp
  WriteBytes(dir / "malformed-table-corrupt.bin", mutated);

  WriteBytes(dir / "regression-slot-count-overflow.paez",
             MakeSlotCountOverflowArtifact(seed));

  WriteBytes(dir / "malformed-retired-kind.bin",
             MakeRetiredKindArtifact(seed));
}

std::string Framed(const std::string& payload) {
  const uint32_t length = static_cast<uint32_t>(payload.size());
  std::string frame(sizeof(length), '\0');
  std::memcpy(frame.data(), &length, sizeof(length));
  return frame + payload;
}

void WriteFrameCorpus(const fs::path& dir) {
  serve::ExtractRequest extract;
  extract.product_id = "p-001";
  extract.html = "<html><body>重量は7kgです</body></html>";
  WriteBytes(dir / "seed-extract.bin",
             Framed(serve::EncodeExtractRequest(extract)));
  WriteBytes(dir / "seed-ping.bin", Framed(serve::EncodePingRequest()));
  WriteBytes(dir / "seed-stats.bin", Framed(serve::EncodeStatsRequest()));
  serve::PublishRequest publish;
  publish.model_path = "/tmp/model.paez";
  publish.resources_dir = "/tmp/resources";
  WriteBytes(dir / "seed-publish.bin",
             Framed(serve::EncodePublishRequest(publish)));
  WriteBytes(dir / "seed-shutdown.bin",
             Framed(serve::EncodeShutdownRequest()));

  serve::ExtractResponse response;
  response.generation = 7;
  response.triples.push_back({"p-001", "重量", "7kg"});
  WriteBytes(dir / "seed-extract-response.bin",
             Framed(serve::EncodeExtractResponse(response)));
  WriteBytes(dir / "seed-error-response.bin",
             Framed(serve::EncodeErrorResponse(
                 serve::Op::kExtract,
                 Status::InvalidArgument("fuzz seed error"))));

  // A multi-frame stream: framing must resynchronize across frames.
  WriteBytes(dir / "seed-stream.bin",
             Framed(serve::EncodePingRequest()) +
                 Framed(serve::EncodeStatsRequest()) +
                 Framed(serve::EncodeShutdownRequest()));

  // Corrupt framing: each targets one ReadFrame failure mode.
  std::string huge(sizeof(uint32_t), '\0');
  const uint32_t huge_len = 0xFFFFFFFFu;
  std::memcpy(huge.data(), &huge_len, sizeof(huge_len));
  WriteBytes(dir / "malformed-oversize-length.bin", huge + "xx");

  std::string lying = Framed(std::string(100, 'a'));
  lying.resize(sizeof(uint32_t) + 10);  // promises 100, delivers 10
  WriteBytes(dir / "malformed-truncated-frame.bin", lying);

  WriteBytes(dir / "malformed-unknown-opcode.bin",
             Framed(std::string(1, '\x7f')));
  WriteBytes(dir / "malformed-empty-frame.bin", Framed(""));
  WriteBytes(dir / "malformed-garbage.bin",
             std::string("\x01\x02garbage-not-a-frame\xff\xfe", 22));
}

int Run(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: pae-fuzz-make-corpus <output-root>\n";
    return 2;
  }
  const fs::path root = argv[1];
  const fs::path paez_dir = root / "paez";
  const fs::path frame_dir = root / "frame";
  fs::create_directories(paez_dir);
  fs::create_directories(frame_dir);
  WritePaezCorpus(paez_dir);
  WriteFrameCorpus(frame_dir);
  std::cout << "pae-fuzz-make-corpus: corpus written under " << root << "\n";
  return 0;
}

}  // namespace
}  // namespace pae::fuzz

int main(int argc, char** argv) { return pae::fuzz::Run(argc, argv); }
