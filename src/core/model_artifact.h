#ifndef PAE_CORE_MODEL_ARTIFACT_H_
#define PAE_CORE_MODEL_ARTIFACT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crf/crf_tagger.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace pae::core {

// =====================================================================
// The `.paez` zero-copy model artifact (format version 1).
//
//   ┌──────────────────────────────┐ offset 0
//   │ PaezHeader (64 bytes)        │ magic, version, section count,
//   │                              │ file size, table checksum, flags
//   ├──────────────────────────────┤ offset 64
//   │ PaezSection × section_count  │ kind, alignment, offset, length,
//   │ (32 bytes each)              │ payload checksum
//   ├──────────────────────────────┤ first aligned offset
//   │ section payloads…            │ each padded to its alignment;
//   │                              │ the weight block is
//   │                              │ page-aligned (4096)
//   └──────────────────────────────┘ offset file_bytes
//
// Everything is offset-based — no pointers, no fixup pass — so the file
// is mapped read-only (MAP_SHARED) and used in place: the CRF feature
// dictionary is probed directly in the mapping
// (util::StringTableView), the weight vector is handed to inference as
// a span, and N processes share one physical copy of the pages.
//
// Versioning and compatibility: `version` is bumped on any layout
// change; readers reject unknown versions (no silent best-effort
// parse). Unknown section kinds are rejected too — v1 files contain
// exactly the six CRF kinds below and nothing else. Kinds 7–14 once
// held word2vec embeddings (f32 and int8) and a reserved BiLSTM block;
// no writer emits them, readers reject them like any unknown kind, and
// their ids are never reused.
//
// Checksum policy: the section *table* checksum is always verified on
// open (cheap, and it is what bounds every later read). Per-section
// payload checksums are verified when OpenOptions.verify_checksums is
// set — pae-model-pack does after writing, the corruption tests do,
// and the bench's "first-touch" pass does (doubling as the page
// warmer). The serving hot path opens with verification off: the
// structural bounds checks below still guarantee no read ever leaves
// the mapping, which is the safety property; payload integrity is the
// packer's exit criterion, not a per-publish tax.
// =====================================================================

inline constexpr uint32_t kPaezMagic = 0x5A454150;  // "PAEZ" little-endian
inline constexpr uint32_t kPaezVersion = 1;
inline constexpr uint32_t kPaezHeaderBytes = 64;

// The header's only valid `flags` value: the file holds a CRF. Bits 1
// and 2 once marked embedding sections and are never reused.
inline constexpr uint64_t kPaezFlagCrf = 1u << 0;

struct PaezHeader {
  uint32_t magic = kPaezMagic;
  uint32_t version = kPaezVersion;
  uint32_t header_bytes = kPaezHeaderBytes;
  uint32_t section_count = 0;
  uint64_t file_bytes = 0;
  uint64_t table_checksum = 0;  // ArtifactChecksum over the section table
  uint64_t flags = 0;
  uint8_t reserved[24] = {};
};
static_assert(sizeof(PaezHeader) == kPaezHeaderBytes,
              "header layout is the format");

/// Section kinds of format version 1.
enum PaezSectionKind : uint32_t {
  kCrfMeta = 1,          // PaezCrfMeta
  kCrfLabels = 2,        // [u32 count][count × u32 len][bytes]
  kCrfFeatureSlots = 3,  // PackedStringSlot[feature_slot_count]
  kCrfFeatureKeys = 4,   // PackedStringKey[num_features]
  kCrfFeatureArena = 5,  // raw key bytes
  kCrfWeights = 6,       // double[weight_count], page-aligned
};

struct PaezSection {
  uint32_t kind = 0;
  uint32_t align = 1;  // power of two; offset % align == 0
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t checksum = 0;  // ArtifactChecksum over the payload bytes
};
static_assert(sizeof(PaezSection) == 32, "section layout is the format");

struct PaezCrfMeta {
  int32_t window = 0;
  int32_t max_sentence_bucket = 0;
  double c1 = 0;
  double c2 = 0;
  uint32_t num_labels = 0;
  uint32_t num_features = 0;
  uint64_t weight_count = 0;
  uint64_t feature_slot_count = 0;
};
static_assert(sizeof(PaezCrfMeta) == 48, "crf meta layout is the format");

/// FNV-1a 64-bit over a byte range; the artifact's only checksum.
uint64_t ArtifactChecksum(const void* data, size_t bytes);

/// Replaces `path` with `bytes` without ever truncating it: the bytes go
/// to a fresh file in the same directory, which is fsync'ed and then
/// renamed over `path`. A process that has the old file mapped (a
/// serving daemon) keeps reading the old inode; truncating in place
/// would SIGBUS it on the next page past the new end of file.
Status PublishFile(const std::string& bytes, const std::string& path);

/// Packs a trained CRF tagger into a `.paez` artifact at `out_path`.
/// Deterministic: the same model bytes always produce the same file.
/// The tagger must be trained in memory (not itself packed). An
/// existing `out_path` is replaced, never truncated: the bytes go to a
/// temporary file in the same directory that is fsync'ed and renamed
/// over it, so a process that has the old artifact mapped keeps reading
/// the old bytes.
Status PackModelArtifact(const crf::CrfTagger& tagger,
                         const std::string& out_path);

/// The old four-argument spelling, kept only because the end-to-end
/// benchmark (perfbench/src/workloads.cc) still calls
/// `PackModelArtifact(tagger, nullptr, {}, path)`. Deleted by the next
/// benchmark change, together with the serve/loadgen.h rename.
inline Status PackModelArtifact(const crf::CrfTagger& tagger, std::nullptr_t,
                                std::nullptr_t, const std::string& out_path) {
  return PackModelArtifact(tagger, out_path);
}

/// A validated, mmap'ed `.paez` artifact. Open() performs the full
/// structural validation pass (bounds, alignment, overlap, table
/// checksum, string-table invariants, dimension cross-checks) so every
/// later access is provably inside the mapping; view factories below
/// then hand out zero-copy models pinned to the artifact's lifetime.
class ModelArtifact {
 public:
  struct OpenOptions {
    /// Also verify every section's payload checksum (reads the whole
    /// file — first-touches all pages). Off on the serving hot path.
    bool verify_checksums = false;
  };

  static Result<std::shared_ptr<const ModelArtifact>> Open(
      const std::string& path, const OpenOptions& options);
  static Result<std::shared_ptr<const ModelArtifact>> Open(
      const std::string& path) {
    return Open(path, OpenOptions());
  }

  const PaezHeader& header() const { return header_; }
  const std::vector<PaezSection>& sections() const { return sections_; }
  const PaezCrfMeta& crf_meta() const { return crf_meta_; }
  size_t file_bytes() const { return map_.size(); }

  /// Section payload start, or nullptr when the kind is absent.
  const uint8_t* SectionData(PaezSectionKind kind) const;
  /// Section payload length in bytes (0 when absent).
  size_t SectionLength(PaezSectionKind kind) const;

 private:
  ModelArtifact() = default;

  util::MmapFile map_;
  PaezHeader header_;
  std::vector<PaezSection> sections_;
  PaezCrfMeta crf_meta_;
  std::vector<std::string> labels_;  // parsed once at Open (tiny)

  friend Result<crf::PackedCrfModel> MakePackedCrfModel(
      std::shared_ptr<const ModelArtifact> artifact);
};

/// Builds the zero-copy CRF model view: labels copied (a handful of
/// short strings), feature table and weights referenced in place. The
/// returned model's `owner` pins `artifact` (and its mapping).
Result<crf::PackedCrfModel> MakePackedCrfModel(
    std::shared_ptr<const ModelArtifact> artifact);

}  // namespace pae::core

#endif  // PAE_CORE_MODEL_ARTIFACT_H_
