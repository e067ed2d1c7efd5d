#ifndef PAE_UTIL_WIRE_H_
#define PAE_UTIL_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace pae {

/// Hard ceiling on the element count of any serialized string (2^28).
/// The reader rejects corrupt length words above it instead of
/// attempting an absurd allocation, and the writer refuses to emit a
/// string it knows the reader could never accept — which also rules
/// out the silent size_t → uint32_t length truncation a >4 GiB payload
/// would otherwise suffer.
inline constexpr uint32_t kMaxSerialElements = 1u << 28;

}  // namespace pae

namespace pae::util {

/// Wire-frame serialization: fixed-width little-endian scalars and
/// u32-length-prefixed strings appended to / parsed from a byte buffer.
/// Errors latch — the first failure sets a non-Ok status, later calls
/// become no-ops and never replace it, and a corrupt payload can never
/// decode back as Ok — and every length word is bounded by
/// kMaxSerialElements, so a hostile frame cannot request an absurd
/// allocation.
class WireWriter {
 public:
  WireWriter() = default;

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  void PutU8(uint8_t v) { PutRaw(&v, sizeof(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  /// u32 byte count + raw bytes. Strings longer than kMaxSerialElements
  /// latch OutOfRange and append nothing (no truncated length words).
  void PutString(std::string_view s);

  /// The accumulated payload. Meaningless unless ok().
  const std::string& data() const { return buffer_; }
  /// Final state: Ok, or the first latched error.
  Status Finish() const { return status_; }

 private:
  void PutRaw(const void* bytes, size_t size);

  std::string buffer_;
  Status status_;
};

/// Parses a payload produced by WireWriter (or hostile bytes from the
/// wire). Every Get* returns false once the buffer underruns or a
/// length word exceeds kMaxSerialElements, and latches status().
class WireReader {
 public:
  /// The reader aliases `payload`; it must outlive the reader.
  explicit WireReader(std::string_view payload) : data_(payload) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  size_t remaining() const { return data_.size() - pos_; }

  bool GetU8(uint8_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetU32(uint32_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetU64(uint64_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetString(std::string* s);

  /// Latches InvalidArgument unless the payload was consumed exactly —
  /// trailing bytes in a request are a protocol violation, not padding.
  bool ExpectEnd();

 private:
  bool GetRaw(void* bytes, size_t size);
  void Latch(Status status);

  std::string_view data_;
  size_t pos_ = 0;
  Status status_;
};

}  // namespace pae::util

#endif  // PAE_UTIL_WIRE_H_
