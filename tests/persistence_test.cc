// Serialization: BinaryWriter/Reader primitives, the BiLSTM Save/Load
// round-trip, the CRF `.paez` artifact's rejection of corrupt files,
// and the on-disk corpus layout.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/corpus_io.h"
#include "core/engine.h"
#include "core/model_artifact.h"
#include "crf/crf_tagger.h"
#include "datagen/generator.h"
#include "lstm/bilstm_tagger.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/serial.h"

namespace pae {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / ("pae_test_" + name)).string();
}

// ---------------- binary primitives ----------------

TEST(SerialTest, ScalarAndVectorRoundTrip) {
  const std::string path = TempPath("scalars.bin");
  {
    BinaryWriter writer(path, 0xABCD0001, 3);
    writer.WriteU32(42);
    writer.WriteI32(-7);
    writer.WriteU64(1ULL << 40);
    writer.WriteDouble(3.25);
    writer.WriteFloat(-1.5f);
    writer.WriteString("重量=5kg");
    writer.WriteDoubleVec({1.0, 2.0, 3.0});
    writer.WriteFloatVec({0.5f});
    writer.WriteStringVec({"a", "", "長い文字列"});
    ASSERT_TRUE(writer.Finish().ok());
  }
  BinaryReader reader(path, 0xABCD0001, 3);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  uint32_t u32 = 0;
  int32_t i32 = 0;
  uint64_t u64 = 0;
  double d = 0;
  float f = 0;
  std::string s;
  std::vector<double> dv;
  std::vector<float> fv;
  std::vector<std::string> sv;
  EXPECT_TRUE(reader.ReadU32(&u32));
  EXPECT_TRUE(reader.ReadI32(&i32));
  EXPECT_TRUE(reader.ReadU64(&u64));
  EXPECT_TRUE(reader.ReadDouble(&d));
  EXPECT_TRUE(reader.ReadFloat(&f));
  EXPECT_TRUE(reader.ReadString(&s));
  EXPECT_TRUE(reader.ReadDoubleVec(&dv));
  EXPECT_TRUE(reader.ReadFloatVec(&fv));
  EXPECT_TRUE(reader.ReadStringVec(&sv));
  EXPECT_EQ(u32, 42u);
  EXPECT_EQ(i32, -7);
  EXPECT_EQ(u64, 1ULL << 40);
  EXPECT_EQ(d, 3.25);
  EXPECT_EQ(f, -1.5f);
  EXPECT_EQ(s, "重量=5kg");
  EXPECT_EQ(dv, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(sv, (std::vector<std::string>{"a", "", "長い文字列"}));
  std::remove(path.c_str());
}

TEST(SerialTest, BadMagicRejected) {
  const std::string path = TempPath("magic.bin");
  {
    BinaryWriter writer(path, 0x11111111, 1);
    ASSERT_TRUE(writer.Finish().ok());
  }
  BinaryReader reader(path, 0x22222222, 1);
  EXPECT_FALSE(reader.ok());
  std::remove(path.c_str());
}

TEST(SerialTest, WrongVersionRejected) {
  const std::string path = TempPath("version.bin");
  {
    BinaryWriter writer(path, 0x11111111, 1);
    ASSERT_TRUE(writer.Finish().ok());
  }
  BinaryReader reader(path, 0x11111111, 2);
  EXPECT_FALSE(reader.ok());
  std::remove(path.c_str());
}

TEST(SerialTest, TruncatedFileFailsGracefully) {
  const std::string path = TempPath("trunc.bin");
  {
    BinaryWriter writer(path, 0x11111111, 1);
    writer.WriteU32(1234);
    ASSERT_TRUE(writer.Finish().ok());
  }
  fs::resize_file(path, 9);  // header (8) + 1 byte
  BinaryReader reader(path, 0x11111111, 1);
  ASSERT_TRUE(reader.ok());
  uint32_t v = 0;
  EXPECT_FALSE(reader.ReadU32(&v));
  std::remove(path.c_str());
}

TEST(SerialTest, MissingFileIsNotFound) {
  BinaryReader reader(TempPath("does_not_exist.bin"), 1, 1);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
}

// ---------------- corrupt length words & silent failures ----------------

// Every BinaryReader failure must surface through status(), not only
// through the bool return — callers that forward reader.status() (model
// Load functions) must never report Ok for a corrupt file.

TEST(SerialTest, TruncatedReadLatchesNonOkStatus) {
  const std::string path = TempPath("trunc_status.bin");
  {
    BinaryWriter writer(path, 0x11111111, 1);
    writer.WriteU32(1234);
    ASSERT_TRUE(writer.Finish().ok());
  }
  fs::resize_file(path, 9);
  BinaryReader reader(path, 0x11111111, 1);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.status().ok());
  uint32_t v = 0;
  EXPECT_FALSE(reader.ReadU32(&v));
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.status().ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

TEST(SerialTest, OversizeLengthWordFailsEveryContainerReader) {
  // A corrupt length word above kMaxSerialElements must fail the read
  // AND latch a non-Ok status — this was the silent-failure bug: the
  // read returned false but ok()/status() still claimed success.
  const std::string path = TempPath("oversize_len.bin");
  {
    BinaryWriter writer(path, 0x11111111, 1);
    writer.WriteU32(kMaxSerialElements + 1);  // bogus length word
    ASSERT_TRUE(writer.Finish().ok());
  }
  const auto expect_fails = [&](auto read_fn) {
    BinaryReader reader(path, 0x11111111, 1);
    ASSERT_TRUE(reader.ok());
    EXPECT_FALSE(read_fn(reader));
    EXPECT_FALSE(reader.ok());
    ASSERT_FALSE(reader.status().ok());
    EXPECT_EQ(reader.status().code(), StatusCode::kOutOfRange);
  };
  expect_fails([](BinaryReader& r) {
    std::string s;
    return r.ReadString(&s);
  });
  expect_fails([](BinaryReader& r) {
    std::vector<double> v;
    return r.ReadDoubleVec(&v);
  });
  expect_fails([](BinaryReader& r) {
    std::vector<float> v;
    return r.ReadFloatVec(&v);
  });
  expect_fails([](BinaryReader& r) {
    std::vector<std::string> v;
    return r.ReadStringVec(&v);
  });
  std::remove(path.c_str());
}

TEST(SerialTest, MidVectorEofLatchesNonOkStatus) {
  const std::string path = TempPath("mid_vector_eof.bin");
  {
    BinaryWriter writer(path, 0x11111111, 1);
    writer.WriteDoubleVec({1, 2, 3, 4, 5, 6, 7, 8});
    ASSERT_TRUE(writer.Finish().ok());
  }
  // Header (8) + length word (4) + 3.5 doubles: EOF mid-payload.
  fs::resize_file(path, 8 + 4 + 28);
  BinaryReader reader(path, 0x11111111, 1);
  ASSERT_TRUE(reader.ok());
  std::vector<double> v;
  EXPECT_FALSE(reader.ReadDoubleVec(&v));
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

TEST(SerialTest, MidStringVecEofLatchesNonOkStatus) {
  const std::string path = TempPath("mid_stringvec_eof.bin");
  size_t full_size = 0;
  {
    BinaryWriter writer(path, 0x11111111, 1);
    writer.WriteStringVec({"first", "second", "third"});
    ASSERT_TRUE(writer.Finish().ok());
    full_size = static_cast<size_t>(fs::file_size(path));
  }
  fs::resize_file(path, full_size - 4);  // cut into the last string
  BinaryReader reader(path, 0x11111111, 1);
  ASSERT_TRUE(reader.ok());
  std::vector<std::string> v;
  EXPECT_FALSE(reader.ReadStringVec(&v));
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.status().ok());
  std::remove(path.c_str());
}

TEST(SerialTest, WriterRefusesOversizeContainers) {
  // The writer shares the reader's element bound, so a container whose
  // length word would be unreadable (or, at > 4 GiB, silently truncated
  // from size_t to uint32_t) is refused up front and Finish() reports it.
  const std::string path = TempPath("oversize_write.bin");
  {
    BinaryWriter writer(path, 0x11111111, 1);
    const std::string huge(static_cast<size_t>(kMaxSerialElements) + 1, 'x');
    writer.WriteString(huge);
    EXPECT_FALSE(writer.ok());
    const Status finish = writer.Finish();
    ASSERT_FALSE(finish.ok());
    EXPECT_EQ(finish.code(), StatusCode::kOutOfRange);
  }
  // Nothing beyond the header may have been written for the refused
  // container — a partial/truncated length word on disk would defeat
  // the point.
  EXPECT_LE(fs::file_size(path), 8u);
  std::remove(path.c_str());
}

TEST(SerialTest, WriterOversizeErrorLatchesFirstError) {
  const std::string path = TempPath("oversize_latch.bin");
  BinaryWriter writer(path, 0x11111111, 1);
  const std::string huge(static_cast<size_t>(kMaxSerialElements) + 1, 'x');
  writer.WriteString(huge);
  writer.WriteString("small");  // later valid writes don't clear the error
  const Status finish = writer.Finish();
  ASSERT_FALSE(finish.ok());
  EXPECT_EQ(finish.code(), StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

// ---------------- model round-trips ----------------

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

TEST(PersistenceTest, CrfSaveUntrainedFails) {
  crf::CrfTagger untrained;
  EXPECT_EQ(core::PackModelArtifact(untrained, TempPath("untrained.paez"))
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(PersistenceTest, CrfPackIntoMissingDirectoryFails) {
  crf::CrfOptions options;
  options.max_iterations = 5;
  crf::CrfTagger tagger(options);
  ASSERT_TRUE(tagger.Train(TinyTrainingData()).ok());
  const std::string dir = TempPath("no_such_dir");
  fs::remove_all(dir);
  EXPECT_FALSE(core::PackModelArtifact(tagger, dir + "/model.paez").ok());
  EXPECT_FALSE(fs::exists(dir));
}

TEST(PersistenceTest, CrfSaveWithBlockedPairsWritesNoModel) {
  crf::CrfOptions options;
  options.max_iterations = 5;
  crf::CrfTagger tagger(options);
  ASSERT_TRUE(tagger.Train(TinyTrainingData()).ok());
  const std::string model = TempPath("blocked_pairs.paez");
  fs::remove_all(model);
  fs::remove_all(model + ".pairs");
  fs::create_directories(model + ".pairs");  // in the sidecar's way
  EXPECT_FALSE(core::SaveCrfModel(tagger, {"色\t赤"}, model).ok());
  EXPECT_FALSE(fs::exists(model));
  fs::remove_all(model + ".pairs");
}

TEST(PersistenceTest, CrfSaveLoadKeepsPairsAndCountsAMissingSidecar) {
  crf::CrfOptions options;
  options.max_iterations = 5;
  crf::CrfTagger tagger(options);
  ASSERT_TRUE(tagger.Train(TinyTrainingData()).ok());
  const std::string model = TempPath("saved_with_pairs.paez");
  ASSERT_TRUE(core::SaveCrfModel(tagger, {"色\t赤", "重さ\t3kg"}, model).ok());
  util::Counter* missing = util::MetricsRegistry::Global().GetCounter(
      "model.load.pairs_missing");
  const int64_t missing_before = missing->value();
  Result<core::LoadedCrfModel> loaded = core::LoadCrfModel(model);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().accepted_pairs,
            (std::unordered_set<std::string>{"色\t赤", "重さ\t3kg"}));
  EXPECT_EQ(missing->value(), missing_before);

  fs::remove(model + ".pairs");
  loaded = core::LoadCrfModel(model);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().accepted_pairs.empty());
  EXPECT_EQ(missing->value(), missing_before + 1);
}

// Overwrites `count` bytes at `offset` in the file at `path`.
void CorruptBytes(const std::string& path, size_t offset, size_t count,
                  char byte) {
  std::fstream file(path,
                    std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.is_open()) << path;
  file.seekp(static_cast<std::streamoff>(offset));
  for (size_t i = 0; i < count; ++i) file.put(byte);
  ASSERT_TRUE(file.good());
}

// ---------------- .paez artifact corruption ----------------

// The zero-copy reader's contract: a corrupt artifact yields a clean
// non-Ok status from Open — never a crash, never a read outside the
// mapping (the ASan pass in check.sh runs this suite to hold that).

/// A small packed artifact built once per process; tests copy it to a
/// probe path before mutating bytes.
const std::string& PackedArtifactPath() {
  static const std::string* path = [] {
    crf::CrfOptions options;
    options.max_iterations = 15;
    crf::CrfTagger tagger(options);
    PAE_CHECK(tagger.Train(TinyTrainingData()).ok());
    auto* p = new std::string(TempPath("artifact_base.paez"));
    PAE_CHECK(core::PackModelArtifact(tagger, *p).ok());
    return p;
  }();
  return *path;
}

/// Copies the base artifact to a fresh probe file and returns its path.
std::string CopyArtifact(const std::string& name) {
  const std::string path = TempPath(name);
  fs::copy_file(PackedArtifactPath(), path,
                fs::copy_options::overwrite_existing);
  return path;
}

/// Mutates the header/section table of a `.paez` file through `fn`,
/// then re-stamps the table checksum so Open exercises the structural
/// validation under test instead of tripping on the checksum first.
template <typename Fn>
void PatchArtifactTable(const std::string& path, Fn fn) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open());
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  core::PaezHeader header;
  std::memcpy(&header, data.data(), sizeof(header));
  std::vector<core::PaezSection> table(header.section_count);
  std::memcpy(table.data(), data.data() + core::kPaezHeaderBytes,
              table.size() * sizeof(core::PaezSection));
  fn(&header, table.data());
  header.table_checksum = core::ArtifactChecksum(
      table.data(), table.size() * sizeof(core::PaezSection));
  std::memcpy(data.data(), &header, sizeof(header));
  std::memcpy(data.data() + core::kPaezHeaderBytes, table.data(),
              table.size() * sizeof(core::PaezSection));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good());
}

TEST(PaezCorruptionTest, TruncatedHeaderRejected) {
  const std::string path = CopyArtifact("trunc_header.paez");
  for (const size_t size : {size_t{0}, size_t{3}, size_t{63}}) {
    fs::resize_file(path, size);
    auto artifact = core::ModelArtifact::Open(path);
    ASSERT_FALSE(artifact.ok()) << "opened a " << size << "-byte header";
    EXPECT_EQ(artifact.status().code(), StatusCode::kOutOfRange);
  }
  std::remove(path.c_str());
}

TEST(PaezCorruptionTest, TruncatedFileRejected) {
  const std::string path = CopyArtifact("trunc_file.paez");
  const size_t full = static_cast<size_t>(fs::file_size(path));
  for (const size_t size : {full / 2, full - 1}) {
    fs::resize_file(path, size);
    auto artifact = core::ModelArtifact::Open(path);
    ASSERT_FALSE(artifact.ok()) << "opened a file cut to " << size;
    EXPECT_EQ(artifact.status().code(), StatusCode::kOutOfRange);
  }
  std::remove(path.c_str());
}

TEST(PaezCorruptionTest, BadMagicRejected) {
  const std::string path = CopyArtifact("bad_magic.paez");
  CorruptBytes(path, 0, 1, '\x00');
  auto artifact = core::ModelArtifact::Open(path);
  ASSERT_FALSE(artifact.ok());
  EXPECT_EQ(artifact.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(PaezCorruptionTest, UnknownVersionRejected) {
  const std::string path = CopyArtifact("bad_version.paez");
  PatchArtifactTable(path, [](core::PaezHeader* header, core::PaezSection*) {
    header->version = core::kPaezVersion + 1;
  });
  auto artifact = core::ModelArtifact::Open(path);
  ASSERT_FALSE(artifact.ok());
  EXPECT_EQ(artifact.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(PaezCorruptionTest, SectionOffsetOutOfBoundsRejected) {
  const std::string path = CopyArtifact("oob_offset.paez");
  const size_t full = static_cast<size_t>(fs::file_size(path));
  PatchArtifactTable(path,
                     [&](core::PaezHeader*, core::PaezSection* table) {
                       // Push the weights section past EOF, keeping its
                       // alignment valid so only the bounds check fires.
                       table[5].offset = (full + 8191) & ~size_t{4095};
                     });
  auto artifact = core::ModelArtifact::Open(path);
  ASSERT_FALSE(artifact.ok());
  EXPECT_EQ(artifact.status().code(), StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

TEST(PaezCorruptionTest, OverlappingSectionsRejected) {
  const std::string path = CopyArtifact("overlap.paez");
  PatchArtifactTable(path, [](core::PaezHeader*, core::PaezSection* table) {
    // Slots and keys are both 16-aligned; aliasing their offsets keeps
    // every per-section check green and trips only the overlap sweep.
    table[3].offset = table[2].offset;
  });
  auto artifact = core::ModelArtifact::Open(path);
  ASSERT_FALSE(artifact.ok());
  EXPECT_EQ(artifact.status().code(), StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

TEST(PaezCorruptionTest, RetiredSectionKindsRejected) {
  // 7 and 13 bound the retired embedding kinds, 14 was the reserved
  // BiLSTM block, and 15 is the first kind no v1 file has ever held.
  for (const uint32_t kind : {7u, 13u, 14u, 15u}) {
    const std::string path = CopyArtifact("retired_kind.paez");
    PatchArtifactTable(path,
                       [kind](core::PaezHeader*, core::PaezSection* table) {
                         table[4].kind = kind;
                       });
    auto artifact = core::ModelArtifact::Open(path);
    ASSERT_FALSE(artifact.ok()) << "opened a file with section kind " << kind;
    EXPECT_EQ(artifact.status().code(), StatusCode::kInvalidArgument)
        << "kind " << kind;
    // Refused for the kind itself, not for the CRF section it replaced.
    EXPECT_NE(artifact.status().ToString().find("unknown section kind"),
              std::string::npos)
        << artifact.status().ToString();
    std::remove(path.c_str());
  }
}

TEST(PaezCorruptionTest, HeaderFlagsOtherThanCrfRejected) {
  // 0 is an artifact without a CRF; 1|2 is the old CRF + f32-embedding
  // header. A `.paez` holds a CRF and nothing else.
  for (const uint64_t flags :
       {uint64_t{0}, core::kPaezFlagCrf | uint64_t{1} << 1}) {
    const std::string path = CopyArtifact("bad_flags.paez");
    PatchArtifactTable(path,
                       [flags](core::PaezHeader* header, core::PaezSection*) {
                         header->flags = flags;
                       });
    auto artifact = core::ModelArtifact::Open(path);
    ASSERT_FALSE(artifact.ok()) << "opened a file with flags " << flags;
    EXPECT_EQ(artifact.status().code(), StatusCode::kInvalidArgument)
        << "flags " << flags;
    std::remove(path.c_str());
  }
}

TEST(PaezCorruptionTest, TableChecksumAlwaysVerified) {
  const std::string path = CopyArtifact("table_checksum.paez");
  // Flip one section-table byte WITHOUT re-stamping the checksum: even
  // a default (no payload verification) open must refuse.
  CorruptBytes(path, core::kPaezHeaderBytes + 9, 1, '\x7F');
  auto artifact = core::ModelArtifact::Open(path);
  ASSERT_FALSE(artifact.ok());
  EXPECT_EQ(artifact.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(PaezCorruptionTest, PayloadChecksumPolicyIsOptIn) {
  const std::string path = CopyArtifact("payload_checksum.paez");
  // Flip one byte deep inside the weights payload. The structural open
  // still succeeds (bounds are intact — this is the documented
  // policy), while a verifying open refuses.
  const size_t full = static_cast<size_t>(fs::file_size(path));
  CorruptBytes(path, full - 16, 1, '\x55');
  auto structural = core::ModelArtifact::Open(path);
  EXPECT_TRUE(structural.ok()) << structural.status().ToString();
  core::ModelArtifact::OpenOptions verify;
  verify.verify_checksums = true;
  auto checked = core::ModelArtifact::Open(path, verify);
  ASSERT_FALSE(checked.ok());
  EXPECT_EQ(checked.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(PaezCorruptionTest, MetaDimensionMismatchRejected) {
  const std::string path = CopyArtifact("meta_mismatch.paez");
  // Corrupt num_labels inside the CRF meta payload; the weight-count
  // cross-check must catch the inconsistency. Re-stamp the payload
  // checksum so a verifying open exercises the same path.
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.is_open());
  core::PaezHeader header;
  file.read(reinterpret_cast<char*>(&header), sizeof(header));
  std::vector<core::PaezSection> table(header.section_count);
  file.read(reinterpret_cast<char*>(table.data()),
            static_cast<std::streamsize>(table.size() *
                                         sizeof(core::PaezSection)));
  ASSERT_EQ(table[0].kind, core::kCrfMeta);
  core::PaezCrfMeta meta;
  file.seekg(static_cast<std::streamoff>(table[0].offset));
  file.read(reinterpret_cast<char*>(&meta), sizeof(meta));
  meta.num_labels += 1;
  file.seekp(static_cast<std::streamoff>(table[0].offset));
  file.write(reinterpret_cast<const char*>(&meta), sizeof(meta));
  file.close();
  PatchArtifactTable(path, [&](core::PaezHeader*, core::PaezSection* t) {
    t[0].checksum = core::ArtifactChecksum(&meta, sizeof(meta));
  });
  auto artifact = core::ModelArtifact::Open(path);
  ASSERT_FALSE(artifact.ok());
  std::remove(path.c_str());
}

TEST(PersistenceTest, BiLstmSaveLoadPredictsIdentically) {
  lstm::BiLstmOptions options;
  options.epochs = 4;
  options.seed = 3;
  lstm::BiLstmTagger original(options);
  ASSERT_TRUE(original.Train(TinyTrainingData()).ok());
  const std::string path = TempPath("model.lstm");
  ASSERT_TRUE(original.Save(path).ok());

  lstm::BiLstmTagger restored;
  ASSERT_TRUE(restored.Load(path).ok());

  text::LabeledSequence probe;
  probe.tokens = {"重量", "は", "3", "kg", "です"};
  probe.pos = {"NN", "PRT", "NUM", "UNIT", "VB"};
  EXPECT_EQ(restored.Predict(probe), original.Predict(probe));
  std::remove(path.c_str());
}

// ---------------- corpus I/O ----------------

TEST(CorpusIoTest, CorpusRoundTrip) {
  datagen::GeneratorConfig config;
  config.num_products = 40;
  config.seed = 21;
  datagen::GeneratedCategory generated = datagen::GenerateCategory(
      datagen::CategoryId::kLadiesBags, config);

  const std::string dir = TempPath("corpus_roundtrip");
  fs::remove_all(dir);
  ASSERT_TRUE(core::SaveCorpus(generated.corpus, dir).ok());
  auto loaded = core::LoadCorpus(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded.value().category, generated.corpus.category);
  EXPECT_EQ(loaded.value().language, generated.corpus.language);
  ASSERT_EQ(loaded.value().pages.size(), generated.corpus.pages.size());
  // Pages come back sorted by id; compare as map.
  std::map<std::string, std::string> original_pages, loaded_pages;
  for (const auto& p : generated.corpus.pages) {
    original_pages[p.product_id] = p.html;
  }
  for (const auto& p : loaded.value().pages) {
    loaded_pages[p.product_id] = p.html;
  }
  EXPECT_EQ(original_pages, loaded_pages);
  EXPECT_EQ(loaded.value().query_log.size(),
            generated.corpus.query_log.size());
  EXPECT_EQ(loaded.value().tokenizer_lexicon,
            generated.corpus.tokenizer_lexicon);
  EXPECT_EQ(loaded.value().pos_lexicon.word_tags.size(),
            generated.corpus.pos_lexicon.word_tags.size());
  fs::remove_all(dir);
}

TEST(CorpusIoTest, TruthRoundTripPreservesJudgements) {
  datagen::GeneratorConfig config;
  config.num_products = 60;
  config.seed = 22;
  datagen::GeneratedCategory generated =
      datagen::GenerateCategory(datagen::CategoryId::kGarden, config);

  const std::string dir = TempPath("truth_roundtrip");
  fs::remove_all(dir);
  ASSERT_TRUE(core::SaveTruth(generated.truth, dir).ok());
  auto loaded = core::LoadTruth(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  ASSERT_EQ(loaded.value().entries.size(), generated.truth.entries.size());
  EXPECT_EQ(loaded.value().attribute_aliases,
            generated.truth.attribute_aliases);
  EXPECT_EQ(loaded.value().valid_pairs, generated.truth.valid_pairs);
  fs::remove_all(dir);
}

TEST(CorpusIoTest, TriplesRoundTrip) {
  const std::string path = TempPath("triples.tsv");
  std::vector<core::Triple> triples = {
      {"p1", "カラー", "赤"},
      {"p2", "重量", "2.5kg"},
  };
  ASSERT_TRUE(core::SaveTriples(triples, path).ok());
  auto loaded = core::LoadTriples(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value()[0], triples[0]);
  EXPECT_EQ(loaded.value()[1], triples[1]);
  std::remove(path.c_str());
}

TEST(CorpusIoTest, LoadMissingDirectoryFails) {
  auto result = core::LoadCorpus(TempPath("nope_nope"));
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace pae
