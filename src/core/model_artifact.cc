#include "core/model_artifact.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <span>
#include <utility>

#include "util/logging.h"

namespace pae::core {

namespace {

/// Caps insane headers before any allocation sized from them.
constexpr uint32_t kMaxSections = 64;

size_t AlignUp(size_t value, size_t align) {
  return (value + align - 1) & ~(align - 1);
}

void AppendPod(std::string* out, const void* data, size_t bytes) {
  out->append(reinterpret_cast<const char*>(data), bytes);
}

/// One section being assembled by the writer.
struct PendingSection {
  uint32_t kind = 0;
  uint32_t align = 1;
  std::string payload;
};

}  // namespace

Status PublishFile(const std::string& bytes, const std::string& path) {
  static std::atomic<uint64_t> sequence{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
  std::FILE* file = std::fopen(tmp.c_str(), "wbx");
  if (file == nullptr) {
    return Status::Internal("cannot open " + tmp + " for write");
  }
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size() &&
            std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
  ok = std::fclose(file) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("failed writing " + path);
  }
  return Status::Ok();
}

namespace {

/// Lays out `pending` after the header + table, writes the file.
Status WriteArtifact(std::vector<PendingSection> pending,
                     const std::string& out_path) {
  PaezHeader header;
  header.section_count = static_cast<uint32_t>(pending.size());
  header.flags = kPaezFlagCrf;

  std::vector<PaezSection> table(pending.size());
  size_t cursor = kPaezHeaderBytes + pending.size() * sizeof(PaezSection);
  for (size_t i = 0; i < pending.size(); ++i) {
    cursor = AlignUp(cursor, pending[i].align);
    table[i].kind = pending[i].kind;
    table[i].align = pending[i].align;
    table[i].offset = cursor;
    table[i].length = pending[i].payload.size();
    table[i].checksum =
        ArtifactChecksum(pending[i].payload.data(), pending[i].payload.size());
    cursor += pending[i].payload.size();
  }
  header.file_bytes = cursor;
  header.table_checksum =
      ArtifactChecksum(table.data(), table.size() * sizeof(PaezSection));

  std::string file;
  file.reserve(cursor);
  AppendPod(&file, &header, sizeof(header));
  AppendPod(&file, table.data(), table.size() * sizeof(PaezSection));
  for (size_t i = 0; i < pending.size(); ++i) {
    file.resize(table[i].offset, '\0');  // alignment padding
    file += pending[i].payload;
  }
  PAE_CHECK_EQ(file.size(), cursor);

  return PublishFile(file, out_path);
}

std::string PackLabels(const std::vector<std::string>& labels) {
  std::string payload;
  const uint32_t count = static_cast<uint32_t>(labels.size());
  AppendPod(&payload, &count, sizeof(count));
  for (const std::string& label : labels) {
    const uint32_t len = static_cast<uint32_t>(label.size());
    AppendPod(&payload, &len, sizeof(len));
  }
  for (const std::string& label : labels) payload += label;
  return payload;
}

Status ParseLabels(const uint8_t* data, size_t length,
                   std::vector<std::string>* labels) {
  if (length < sizeof(uint32_t)) {
    return Status::OutOfRange("paez: truncated label section");
  }
  uint32_t count = 0;
  std::memcpy(&count, data, sizeof(count));
  const size_t lens_end = sizeof(uint32_t) + size_t{count} * sizeof(uint32_t);
  if (count > length || lens_end > length) {
    return Status::OutOfRange("paez: label count out of section bounds");
  }
  labels->clear();
  labels->reserve(count);
  size_t cursor = lens_end;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    std::memcpy(&len, data + sizeof(uint32_t) + size_t{i} * sizeof(uint32_t),
                sizeof(len));
    if (len > length - cursor) {
      return Status::OutOfRange("paez: label bytes out of section bounds");
    }
    labels->emplace_back(reinterpret_cast<const char*>(data + cursor), len);
    cursor += len;
  }
  if (cursor != length) {
    return Status::InvalidArgument("paez: label section has trailing bytes");
  }
  return Status::Ok();
}

/// Casts a section payload to a typed array, checking the element size
/// divides the length. The bounds themselves were validated at Open.
template <typename T>
std::span<const T> SectionArray(const uint8_t* data, size_t length) {
  PAE_DCHECK_EQ(length % sizeof(T), 0u);
  return std::span<const T>(reinterpret_cast<const T*>(data),
                            length / sizeof(T));
}

/// The O(1) string-table shape invariants every open enforces: the slot
/// count is a nonzero power of two (the probe masks with count - 1) and
/// there is at least one free slot. Per-entry integrity is enforced by
/// StringTableView's guarded probe on the serving path, or eagerly by
/// Validate() on checksum-verified opens — so the structural open stays
/// O(sections), not O(model).
Status CheckTableShape(uint64_t slot_count, uint64_t key_count,
                       const char* what, const std::string& path) {
  if (slot_count == 0 || (slot_count & (slot_count - 1)) != 0 ||
      key_count >= slot_count) {
    return Status::InvalidArgument(std::string("paez: ") + what +
                                   " string table has invalid shape in " +
                                   path);
  }
  return Status::Ok();
}

}  // namespace

uint64_t ArtifactChecksum(const void* data, size_t bytes) {
  // FNV-1a 64: dirt simple, byte-order free, and plenty for corruption
  // detection (this is an integrity check, not an authenticity one).
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

Status PackModelArtifact(const crf::CrfTagger& tagger,
                         const std::string& out_path) {
  if (!tagger.trained()) {
    return Status::FailedPrecondition("paez: packing an untrained model");
  }
  if (tagger.packed()) {
    return Status::FailedPrecondition(
        "paez: tagger is already packed; pack from the trained tagger");
  }
  const crf::CrfModel& model = tagger.model();
  std::vector<PendingSection> sections;

  std::vector<util::PackedStringSlot> slots;
  std::vector<util::PackedStringKey> keys;
  std::string arena;
  model.ExportPackedFeatures(&slots, &keys, &arena);

  PaezCrfMeta meta;
  meta.window = tagger.options().features.window;
  meta.max_sentence_bucket = tagger.options().features.max_sentence_bucket;
  meta.c1 = tagger.options().c1;
  meta.c2 = tagger.options().c2;
  meta.num_labels = static_cast<uint32_t>(model.num_labels());
  meta.num_features = static_cast<uint32_t>(model.num_features());
  meta.weight_count = tagger.weights_span().size();
  meta.feature_slot_count = slots.size();

  PendingSection s;
  s.kind = kCrfMeta;
  s.align = 8;
  AppendPod(&s.payload, &meta, sizeof(meta));
  sections.push_back(std::move(s));

  s = PendingSection{};
  s.kind = kCrfLabels;
  s.align = 4;
  s.payload = PackLabels(model.labels());
  sections.push_back(std::move(s));

  s = PendingSection{};
  s.kind = kCrfFeatureSlots;
  s.align = 16;
  AppendPod(&s.payload, slots.data(),
            slots.size() * sizeof(util::PackedStringSlot));
  sections.push_back(std::move(s));

  s = PendingSection{};
  s.kind = kCrfFeatureKeys;
  s.align = 16;
  AppendPod(&s.payload, keys.data(),
            keys.size() * sizeof(util::PackedStringKey));
  sections.push_back(std::move(s));

  s = PendingSection{};
  s.kind = kCrfFeatureArena;
  s.align = 1;
  s.payload = std::move(arena);
  sections.push_back(std::move(s));

  s = PendingSection{};
  s.kind = kCrfWeights;
  s.align = 4096;  // page-aligned: served directly out of the mapping
  AppendPod(&s.payload, tagger.weights_span().data(),
            tagger.weights_span().size() * sizeof(double));
  sections.push_back(std::move(s));

  return WriteArtifact(std::move(sections), out_path);
}

const uint8_t* ModelArtifact::SectionData(PaezSectionKind kind) const {
  for (const PaezSection& section : sections_) {
    if (section.kind == kind) return map_.data() + section.offset;
  }
  return nullptr;
}

size_t ModelArtifact::SectionLength(PaezSectionKind kind) const {
  for (const PaezSection& section : sections_) {
    if (section.kind == kind) return section.length;
  }
  return 0;
}

Result<std::shared_ptr<const ModelArtifact>> ModelArtifact::Open(
    const std::string& path, const OpenOptions& options) {
  Result<util::MmapFile> map = util::MmapFile::Open(path);
  if (!map.ok()) return map.status();
  auto artifact = std::shared_ptr<ModelArtifact>(new ModelArtifact());
  artifact->map_ = std::move(map).value();
  const uint8_t* base = artifact->map_.data();
  const size_t file_bytes = artifact->map_.size();

  // --- header ---
  if (file_bytes < kPaezHeaderBytes) {
    return Status::OutOfRange("paez: truncated header in " + path);
  }
  std::memcpy(&artifact->header_, base, sizeof(PaezHeader));
  const PaezHeader& header = artifact->header_;
  if (header.magic != kPaezMagic) {
    return Status::InvalidArgument("paez: bad magic in " + path);
  }
  if (header.version != kPaezVersion) {
    return Status::InvalidArgument("paez: unsupported format version in " +
                                   path);
  }
  if (header.header_bytes != kPaezHeaderBytes) {
    return Status::InvalidArgument("paez: bad header size in " + path);
  }
  if (header.file_bytes != file_bytes) {
    return Status::OutOfRange("paez: file size mismatch in " + path);
  }
  if (header.flags != kPaezFlagCrf) {
    return Status::InvalidArgument("paez: unsupported header flags in " +
                                   path);
  }
  if (header.section_count == 0 || header.section_count > kMaxSections) {
    return Status::InvalidArgument("paez: bad section count in " + path);
  }
  const size_t table_bytes = size_t{header.section_count} * sizeof(PaezSection);
  const size_t table_end = kPaezHeaderBytes + table_bytes;
  if (table_end > file_bytes) {
    return Status::OutOfRange("paez: section table out of bounds in " + path);
  }

  // --- section table (checksum ALWAYS verified — it bounds every later
  // read, and hashing ~2KB is free next to an open) ---
  if (ArtifactChecksum(base + kPaezHeaderBytes, table_bytes) !=
      header.table_checksum) {
    return Status::InvalidArgument("paez: section table checksum mismatch in " +
                                   path);
  }
  artifact->sections_.resize(header.section_count);
  std::memcpy(artifact->sections_.data(), base + kPaezHeaderBytes,
              table_bytes);

  for (const PaezSection& section : artifact->sections_) {
    if (section.align == 0 || (section.align & (section.align - 1)) != 0 ||
        section.align > 4096) {
      return Status::InvalidArgument("paez: bad section alignment in " + path);
    }
    if (section.offset < table_end || section.offset % section.align != 0) {
      return Status::OutOfRange("paez: bad section offset in " + path);
    }
    if (section.offset > file_bytes ||
        section.length > file_bytes - section.offset) {
      return Status::OutOfRange("paez: section out of file bounds in " + path);
    }
    if (section.kind == 0 || section.kind > kCrfWeights) {
      // Includes the retired kinds 7–14: a v1 reader must not guess at
      // sections it cannot interpret.
      return Status::InvalidArgument("paez: unknown section kind in " + path);
    }
  }
  // No duplicate kinds, no overlapping payloads.
  std::vector<PaezSection> by_offset = artifact->sections_;
  std::sort(by_offset.begin(), by_offset.end(),
            [](const PaezSection& a, const PaezSection& b) {
              return a.offset < b.offset;
            });
  for (size_t i = 1; i < by_offset.size(); ++i) {
    if (by_offset[i - 1].offset + by_offset[i - 1].length >
        by_offset[i].offset) {
      return Status::OutOfRange("paez: overlapping sections in " + path);
    }
  }
  for (size_t i = 0; i < artifact->sections_.size(); ++i) {
    for (size_t j = i + 1; j < artifact->sections_.size(); ++j) {
      if (artifact->sections_[i].kind == artifact->sections_[j].kind) {
        return Status::InvalidArgument("paez: duplicate section kind in " +
                                       path);
      }
    }
  }

  if (options.verify_checksums) {
    for (const PaezSection& section : artifact->sections_) {
      if (ArtifactChecksum(base + section.offset, section.length) !=
          section.checksum) {
        return Status::InvalidArgument("paez: section checksum mismatch in " +
                                       path);
      }
    }
  }

  // --- cross-checks: every view handed out later is sized here.
  // `count * size` is guarded against u64 wraparound: a crafted
  // element count near 2^64 / size would otherwise multiply to a tiny
  // expected length, let a short section pass, and hand later lookups a
  // view claiming far more elements than the mapping holds (found by
  // the .paez fuzz target; fuzz/corpus/paez/regression-slot-count-
  // overflow.paez is the reproducer). No real section outgrows the
  // file, so counts above file_bytes / size are rejected outright. ---
  auto require = [&](PaezSectionKind kind, uint64_t element_count,
                     uint64_t element_size, const char* what) -> Status {
    const uint8_t* data = artifact->SectionData(kind);
    if (data == nullptr) {
      return Status::InvalidArgument(std::string("paez: missing ") + what +
                                     " section in " + path);
    }
    if (element_count > file_bytes / element_size) {
      return Status::OutOfRange(std::string("paez: ") + what +
                                " element count exceeds the file in " + path);
    }
    if (artifact->SectionLength(kind) != element_count * element_size) {
      return Status::OutOfRange(std::string("paez: ") + what +
                                " section has wrong length in " + path);
    }
    return Status::Ok();
  };

  PAE_RETURN_IF_ERROR(require(kCrfMeta, 1, sizeof(PaezCrfMeta), "crf meta"));
  std::memcpy(&artifact->crf_meta_, artifact->SectionData(kCrfMeta),
              sizeof(PaezCrfMeta));
  const PaezCrfMeta& meta = artifact->crf_meta_;
  const uint64_t labels = meta.num_labels;
  const uint64_t features = meta.num_features;
  if (labels == 0 || features == 0 ||
      meta.weight_count != features * labels + labels * labels + 2 * labels) {
    return Status::InvalidArgument("paez: inconsistent crf meta in " + path);
  }
  PAE_RETURN_IF_ERROR(
      require(kCrfFeatureSlots, meta.feature_slot_count,
              sizeof(util::PackedStringSlot), "crf feature slot"));
  PAE_RETURN_IF_ERROR(require(kCrfFeatureKeys, features,
                              sizeof(util::PackedStringKey),
                              "crf feature key"));
  if (artifact->SectionData(kCrfFeatureArena) == nullptr) {
    return Status::InvalidArgument("paez: missing crf arena section in " +
                                   path);
  }
  PAE_RETURN_IF_ERROR(
      require(kCrfWeights, meta.weight_count, sizeof(double), "crf weight"));
  PAE_RETURN_IF_ERROR(CheckTableShape(meta.feature_slot_count, features,
                                      "crf feature", path));
  if (options.verify_checksums) {
    PAE_RETURN_IF_ERROR(util::StringTableView::Validate(
        reinterpret_cast<const util::PackedStringSlot*>(
            artifact->SectionData(kCrfFeatureSlots)),
        meta.feature_slot_count,
        reinterpret_cast<const util::PackedStringKey*>(
            artifact->SectionData(kCrfFeatureKeys)),
        features, artifact->SectionLength(kCrfFeatureArena)));
  }
  PAE_RETURN_IF_ERROR(ParseLabels(artifact->SectionData(kCrfLabels),
                                  artifact->SectionLength(kCrfLabels),
                                  &artifact->labels_));
  if (artifact->labels_.size() != labels) {
    return Status::InvalidArgument("paez: label count mismatch in " + path);
  }

  return std::shared_ptr<const ModelArtifact>(std::move(artifact));
}

Result<crf::PackedCrfModel> MakePackedCrfModel(
    std::shared_ptr<const ModelArtifact> artifact) {
  PAE_CHECK(artifact != nullptr);
  const PaezCrfMeta& meta = artifact->crf_meta();
  crf::PackedCrfModel packed;
  packed.window = meta.window;
  packed.max_sentence_bucket = meta.max_sentence_bucket;
  packed.c1 = meta.c1;
  packed.c2 = meta.c2;
  packed.labels = artifact->labels_;
  packed.features = util::StringTableView(
      reinterpret_cast<const util::PackedStringSlot*>(
          artifact->SectionData(kCrfFeatureSlots)),
      meta.feature_slot_count,
      reinterpret_cast<const util::PackedStringKey*>(
          artifact->SectionData(kCrfFeatureKeys)),
      meta.num_features,
      reinterpret_cast<const char*>(artifact->SectionData(kCrfFeatureArena)),
      artifact->SectionLength(kCrfFeatureArena));
  packed.weights = SectionArray<double>(artifact->SectionData(kCrfWeights),
                                        artifact->SectionLength(kCrfWeights));
  packed.owner = std::move(artifact);
  return packed;
}

}  // namespace pae::core
