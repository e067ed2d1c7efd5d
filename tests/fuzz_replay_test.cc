// Deterministic fuzz-harness coverage: replays the committed corpus
// under fuzz/corpus/ through both harnesses and then runs
// structure-aware mutation sweeps (header bytes, section-table fields,
// meta counts, frame length words) derived from the seed inputs. This
// is the regression gate on toolchains without libFuzzer — under ASan
// or UBSan any out-of-mapping read or hostile-arithmetic trap fails
// the suite; in plain builds it still catches crashes and logic traps.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/model_artifact.h"
#include "frame_harness.h"
#include "paez_harness.h"
#include "paez_mutator.h"

namespace pae {
namespace {

namespace fs = std::filesystem;

std::string CorpusDir(const std::string& target) {
  return std::string(PAE_FUZZ_CORPUS_DIR) + "/" + target;
}

std::vector<std::string> CorpusFiles(const std::string& target) {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(CorpusDir(target))) {
    if (entry.is_regular_file()) files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

const uint8_t* Bytes(const std::string& s) {
  return static_cast<const uint8_t*>(static_cast<const void*>(s.data()));
}

void RunPaez(const std::string& input) {
  fuzz::FuzzPaezOneInput(Bytes(input), input.size());
}

void RunFrame(const std::string& input) {
  fuzz::FuzzFrameOneInput(Bytes(input), input.size());
}

// ---------------- committed corpus replay ----------------

TEST(FuzzReplayTest, PaezCorpusReplaysClean) {
  const std::vector<std::string> files = CorpusFiles("paez");
  // Seeds + malformed variants + the overflow reproducer; an empty or
  // half-missing corpus means the replay gate is not gating anything.
  ASSERT_GE(files.size(), 8u);
  for (const std::string& file : files) RunPaez(ReadBytes(file));
}

TEST(FuzzReplayTest, FrameCorpusReplaysClean) {
  const std::vector<std::string> files = CorpusFiles("frame");
  ASSERT_GE(files.size(), 10u);
  for (const std::string& file : files) RunFrame(ReadBytes(file));
}

TEST(FuzzReplayTest, SeedArtifactsActuallyOpen) {
  // The mutation sweeps below only bite if the seeds they start from
  // are valid artifacts that pass the strict open.
  int opened = 0;
  for (const std::string& file : CorpusFiles("paez")) {
    if (file.find("seed-") == std::string::npos) continue;
    core::ModelArtifact::OpenOptions verify;
    verify.verify_checksums = true;
    auto artifact = core::ModelArtifact::Open(file, verify);
    EXPECT_TRUE(artifact.ok()) << file << ": " << artifact.status().ToString();
    ++opened;
  }
  EXPECT_EQ(opened, 1);
}

// ---------------- the overflow regression entry ----------------

// The committed reproducer: feature_slot_count = 2^60 made the
// expected-bytes multiplication (count × 16) wrap to 0, so a
// zero-length slots section passed validation and StringTableView's
// probe read far outside the mapping. The overflow-safe element-count
// check must reject it at Open, on both open configurations.
TEST(FuzzReplayTest, SlotCountOverflowArtifactIsRejected) {
  const std::string path =
      CorpusDir("paez") + "/regression-slot-count-overflow.paez";
  ASSERT_TRUE(fs::exists(path)) << "regression corpus entry missing";

  auto serving = core::ModelArtifact::Open(path);
  ASSERT_FALSE(serving.ok());
  EXPECT_NE(serving.status().ToString().find("element count exceeds"),
            std::string::npos)
      << serving.status().ToString();

  core::ModelArtifact::OpenOptions verify;
  verify.verify_checksums = true;
  auto checked = core::ModelArtifact::Open(path, verify);
  EXPECT_FALSE(checked.ok());
}

// ---------------- structure-aware .paez mutation sweeps ----------------

class PaezMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    seed_ = ReadBytes(CorpusDir("paez") + "/seed-crf.paez");
    ASSERT_GT(seed_.size(), core::kPaezHeaderBytes);
  }

  std::string seed_;
};

TEST_F(PaezMutationTest, HeaderByteFlipsNeverCrash) {
  // Every header byte, three interesting overwrite values each. These
  // mostly die at magic/version/shape checks — the sweep proves they
  // die cleanly.
  for (size_t i = 0; i < core::kPaezHeaderBytes; ++i) {
    for (const char value : {'\x00', '\xff', '\x80'}) {
      std::string mutated = seed_;
      mutated[i] = value;
      RunPaez(mutated);
    }
  }
}

TEST_F(PaezMutationTest, RestampedSectionFieldMutationsNeverCrash) {
  // Hostile section-table fields with the table checksum restamped so
  // the mutation penetrates past the integrity gate and reaches the
  // structural validators. Offsets/lengths probe the overflow corners;
  // kind/align probe the shape checks.
  core::PaezHeader header;
  ASSERT_TRUE(fuzz::ReadPaezHeader(seed_, &header));
  const uint64_t hostile[] = {0,
                              1,
                              0x7fffffffull,
                              0xffffffffull,
                              1ull << 40,
                              1ull << 60,
                              0xffffffffffffffffull};
  for (size_t index = 0; index < header.section_count; ++index) {
    for (const uint64_t value : hostile) {
      for (const int field : {0, 1, 2, 3}) {  // kind, align, offset, length
        std::string mutated = seed_;
        core::PaezSection section;
        ASSERT_TRUE(fuzz::ReadPaezSection(mutated, index, &section));
        switch (field) {
          case 0: section.kind = static_cast<uint32_t>(value); break;
          case 1: section.align = static_cast<uint32_t>(value); break;
          case 2: section.offset = value; break;
          default: section.length = value; break;
        }
        fuzz::WritePaezSection(&mutated, index, section);
        fuzz::RestampPaezTableChecksum(&mutated);
        RunPaez(mutated);
      }
    }
  }
}

TEST_F(PaezMutationTest, RestampedMetaCountMutationsNeverCrash) {
  // The meta-count class the overflow reproducer came from: hostile
  // feature_slot_count / weight_count / num_features values with both
  // checksums restamped, so validation logic (not integrity) decides.
  const int meta_index = fuzz::FindPaezSection(seed_, core::kCrfMeta);
  ASSERT_GE(meta_index, 0);
  core::PaezSection meta_section;
  ASSERT_TRUE(fuzz::ReadPaezSection(seed_, meta_index, &meta_section));
  ASSERT_EQ(meta_section.length, sizeof(core::PaezCrfMeta));

  const uint64_t hostile[] = {0,       1,         3,        1ull << 32,
                              1ull << 60, 1ull << 63, 0xffffffffffffffffull};
  for (const uint64_t value : hostile) {
    for (const int field : {0, 1, 2}) {
      std::string mutated = seed_;
      core::PaezCrfMeta meta;
      std::memcpy(&meta, mutated.data() + meta_section.offset, sizeof(meta));
      switch (field) {
        case 0: meta.feature_slot_count = value; break;
        case 1: meta.weight_count = value; break;
        default: meta.num_features = static_cast<uint32_t>(value); break;
      }
      std::memcpy(mutated.data() + meta_section.offset, &meta, sizeof(meta));
      fuzz::RestampPaezSectionChecksum(&mutated, meta_index);
      fuzz::RestampPaezTableChecksum(&mutated);
      RunPaez(mutated);
    }
  }
}

TEST_F(PaezMutationTest, TruncationAtEveryStructuralBoundaryNeverCrashes) {
  const size_t boundaries[] = {0,
                               4,
                               8,
                               core::kPaezHeaderBytes - 1,
                               core::kPaezHeaderBytes,
                               core::kPaezHeaderBytes + 1,
                               core::kPaezHeaderBytes + sizeof(core::PaezSection),
                               seed_.size() / 2,
                               seed_.size() - 1};
  for (const size_t at : boundaries) {
    RunPaez(seed_.substr(0, std::min(at, seed_.size())));
  }
}

// ---------------- structure-aware frame mutation sweeps ----------------

class FrameMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    seed_ = ReadBytes(CorpusDir("frame") + "/seed-extract.bin");
    ASSERT_GT(seed_.size(), sizeof(uint32_t));
  }

  std::string seed_;
};

TEST_F(FrameMutationTest, LengthWordMutationsNeverCrash) {
  const uint32_t hostile[] = {0,          1,           100,
                              0x00ffffff, 0x04000000,  // kMaxFrameBytes
                              0x7fffffff, 0xffffffffu};
  for (const uint32_t value : hostile) {
    std::string mutated = seed_;
    std::memcpy(mutated.data(), &value, sizeof(value));
    RunFrame(mutated);
  }
}

TEST_F(FrameMutationTest, EveryOpcodeByteNeverCrashes) {
  // One-byte payload sweeping all 256 opcodes: the five real ones
  // decode (with empty or truncated bodies), the rest must fail clean.
  for (int op = 0; op < 256; ++op) {
    std::string payload(1, static_cast<char>(op));
    const uint32_t length = 1;
    std::string frame(sizeof(length), '\0');
    std::memcpy(frame.data(), &length, sizeof(length));
    RunFrame(frame + payload);
  }
}

TEST_F(FrameMutationTest, TruncationAtEveryPrefixNeverCrashes) {
  // Every prefix of a real extract-request frame: EOF inside the
  // length word, inside the opcode, inside each string's length and
  // body. Small frame, so the full sweep is cheap.
  for (size_t at = 0; at <= seed_.size(); ++at) {
    RunFrame(seed_.substr(0, at));
  }
}

TEST_F(FrameMutationTest, PayloadByteFlipsNeverCrash) {
  for (size_t i = sizeof(uint32_t); i < seed_.size(); ++i) {
    for (const char value : {'\x00', '\xff'}) {
      std::string mutated = seed_;
      mutated[i] = value;
      RunFrame(mutated);
    }
  }
}

}  // namespace
}  // namespace pae
