#ifndef PAE_UTIL_INTERNER_H_
#define PAE_UTIL_INTERNER_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "util/logging.h"
#include "util/status.h"

namespace pae::util {

/// One slot of a packed (on-disk) string table: the open-addressing
/// probe array entry. Mirrors FlatStringInterner's Slot so a mapped
/// table probes exactly like the in-memory one. POD, fixed 16 bytes.
struct PackedStringSlot {
  uint64_t hash = 0;
  int32_t id = -1;  // -1 marks a free slot
  uint32_t pad = 0;
};
static_assert(sizeof(PackedStringSlot) == 16, "slot layout is part of the format");

/// One key of a packed string table: an (offset, length) reference into
/// the table's contiguous arena. POD, fixed 16 bytes.
struct PackedStringKey {
  uint64_t offset = 0;  // byte offset into the arena section
  uint32_t length = 0;
  uint32_t pad = 0;
};
static_assert(sizeof(PackedStringKey) == 16, "key layout is part of the format");

/// Open-addressing string → dense-id dictionary built for hot feature
/// and vocabulary lookups.
///
/// Compared to `std::unordered_map<std::string, int>`:
///  * heterogeneous lookup — `Intern`/`Find` take a `std::string_view`,
///    so callers hash a scratch buffer or a token slice without ever
///    materializing a `std::string` temporary;
///  * one flat slot array (64-bit hash + id per slot, linear probing)
///    instead of a node allocation per key, so probes hit one or two
///    cache lines;
///  * key bytes live in a chunked arena owned by the interner. Arena
///    blocks are never reallocated, so the `std::string_view`s returned
///    by `key()` stay valid for the interner's whole lifetime — across
///    any number of later insertions and table rehashes.
///
/// Ids are dense and assigned in first-insertion order: the i-th
/// distinct key interned gets id i. This makes the id assignment a pure
/// function of the insertion sequence (unlike unordered_map iteration
/// order, which is implementation defined).
///
/// Not thread-safe for writes; concurrent `Find`/`key` calls are safe
/// once no thread is interning.
class FlatStringInterner {
 public:
  FlatStringInterner();
  ~FlatStringInterner() = default;

  /// Copying re-interns every key into a fresh arena (rarely needed —
  /// models are typically moved).
  FlatStringInterner(const FlatStringInterner& other);
  FlatStringInterner& operator=(const FlatStringInterner& other);
  FlatStringInterner(FlatStringInterner&&) noexcept = default;
  FlatStringInterner& operator=(FlatStringInterner&&) noexcept = default;

  /// Returns the id for `key`, inserting a copy of its bytes into the
  /// arena if it is new.
  int Intern(std::string_view key);

  /// Returns the id for `key` or -1 if absent. Never allocates.
  /// Defined inline below — it is the per-feature probe on the compile
  /// hot path.
  int Find(std::string_view key) const;

  /// True if `key` has been interned.
  bool Contains(std::string_view key) const { return Find(key) >= 0; }

  /// The key for `id` (valid for the interner's lifetime).
  std::string_view key(int id) const;

  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }

  /// Pre-sizes the slot table for `expected_keys` insertions: one
  /// up-front rehash instead of the O(log n) doubling storm a bulk
  /// build otherwise pays. Call it wherever the final size is known
  /// (a vocabulary after its count cut, a cache rebuilt at its previous
  /// size).
  void Reserve(size_t expected_keys);

  /// Current slot-table capacity (observability for Reserve call
  /// sites and tests; the table itself is an implementation detail).
  size_t capacity() const { return slots_.size(); }

  /// Deterministic flat export for the zero-copy model artifact: the
  /// live slot table (hash + id per slot, same capacity and probe
  /// layout), the id → (offset, length) key references, and one
  /// contiguous arena holding every key's bytes in id order. A
  /// StringTableView over these three buffers answers Find()/key()
  /// identically to this interner.
  void ExportPacked(std::vector<PackedStringSlot>* slots,
                    std::vector<PackedStringKey>* keys,
                    std::string* arena) const;

  /// 64-bit wyhash-style chunked multiply-mix with an avalanche
  /// finalizer (splitmix64-style), so short keys with shared prefixes
  /// still spread over the table. Defined inline below.
  static uint64_t Hash(std::string_view key);

 private:
  struct Slot {
    uint64_t hash = 0;
    int32_t id = kEmpty;  // kEmpty marks a free slot
  };
  static constexpr int32_t kEmpty = -1;
  static constexpr size_t kMinCapacity = 16;
  /// Arena block size; keys longer than this get a dedicated block.
  static constexpr size_t kBlockBytes = 64 * 1024;

  /// Grows the slot table to `capacity` (a power of two) and re-seats
  /// every existing id. Key bytes never move.
  void Rehash(size_t capacity);
  /// Copies `key`'s bytes into the arena; returns the stable pointer.
  const char* StoreKey(std::string_view key);

  std::vector<Slot> slots_;  // size is a power of two
  size_t mask_ = 0;          // slots_.size() - 1
  /// id → stable (pointer, length) into the arena, insertion order.
  std::vector<std::pair<const char*, uint32_t>> keys_;
  std::vector<std::unique_ptr<char[]>> blocks_;
  size_t block_used_ = 0;
  size_t block_cap_ = 0;
};

inline uint64_t FlatStringInterner::Hash(std::string_view key) {
  // wyhash-style chunked multiply-mix: 8 bytes per round instead of
  // FNV's byte-at-a-time multiply chain — feature keys are 8–25 bytes,
  // so this is 1–3 rounds. Only internal consistency matters (ids come
  // from insertion order, never from hash values), so the byte-order
  // dependence of the memcpy loads is fine.
  const char* p = key.data();
  size_t n = key.size();
  uint64_t h = 0x9e3779b97f4a7c15ull ^ (key.size() * 0xff51afd7ed558ccdull);
  while (n >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    chunk *= 0x9ddfea08eb382d69ull;
    chunk ^= chunk >> 32;
    h = (h ^ chunk) * 0xc2b2ae3d27d4eb4full;
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    h = (h ^ tail) * 0x87c37b91114253d5ull;
  }
  // splitmix64-style finalizer so short, similar keys (w[-2]=…,
  // w[-1]=…) don't leave correlated low bits — the table indexes with
  // the low bits.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 29;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 32;
  return h;
}

/// Read-only string → dense-id lookup over a packed table produced by
/// FlatStringInterner::ExportPacked — typically three sections of an
/// mmap'ed model artifact. Performs zero allocations: the slot array,
/// key references and arena are used in place, so N processes mapping
/// the same artifact share one physical copy of the feature dictionary.
///
/// The probe algorithm (hash, mask, linear probe, hash-then-memcmp
/// confirm) is byte-for-byte the one in FlatStringInterner::Find, so a
/// view over an exported table returns exactly the ids the interner
/// would.
///
/// A default-constructed view is empty and answers Find() == -1.
class StringTableView {
 public:
  StringTableView() = default;

  /// Binds the view. The caller must have checked the O(1) shape
  /// invariants (slot count a nonzero power of two, key_count <
  /// slot_count); per-entry integrity is enforced lazily by the guarded
  /// probe, or eagerly via Validate() on deep-verification paths.
  StringTableView(const PackedStringSlot* slots, size_t slot_count,
                  const PackedStringKey* keys, size_t key_count,
                  const char* arena, size_t arena_bytes)
      : slots_(slots),
        mask_(slot_count - 1),
        keys_(keys),
        key_count_(key_count),
        arena_(arena),
        arena_bytes_(arena_bytes) {
    PAE_DCHECK_GT(slot_count, 0u);
    PAE_DCHECK_EQ(slot_count & (slot_count - 1), 0u);
    PAE_DCHECK_LT(key_count, slot_count);
  }

  /// Deep validation of an untrusted packed table: slot count is a
  /// power of two with at least one free slot (probe termination), every
  /// slot id is -1 or a valid key index, the number of occupied slots
  /// matches the key count, and every key reference lies inside the
  /// arena. O(slots + keys) — run on pack, `pae-model-pack --check`, and
  /// checksum-verified opens. The serving open skips it: the guarded
  /// probe in Find()/key() enforces the same never-read-outside-the-
  /// mapping guarantee per query, so binding is O(1) in the model size.
  static Status Validate(const PackedStringSlot* slots, size_t slot_count,
                         const PackedStringKey* keys, size_t key_count,
                         size_t arena_bytes);

  /// Returns the id for `key` or -1 if absent. Never allocates.
  ///
  /// The probe is guarded: the probe count is capped at the table size,
  /// a slot id outside [0, key_count) answers like a miss, and a key
  /// whose (offset, length) extent leaves the arena answers like a
  /// miss. Every query is therefore memory-safe even over a corrupt
  /// table — no read can leave [slots, keys, arena] — which is what
  /// lets the serving open bind a mapped table after O(1) shape checks
  /// instead of the O(table) Validate() sweep. For a well-formed table
  /// none of the guards ever fires, so ids match FlatStringInterner
  /// exactly.
  int Find(std::string_view key) const {
    if (slots_ == nullptr) return -1;
    const uint64_t hash = FlatStringInterner::Hash(key);
    size_t slot = hash & mask_;
    for (size_t probes = 0; probes <= mask_; ++probes) {
      const int32_t id = slots_[slot].id;
      if (id < 0) return -1;
      if (slots_[slot].hash == hash) {
        if (static_cast<size_t>(id) >= key_count_) return -1;  // corrupt id
        const PackedStringKey& ref = keys_[static_cast<size_t>(id)];
        if (ref.offset > arena_bytes_ ||
            ref.length > arena_bytes_ - ref.offset) {
          return -1;  // corrupt extent
        }
        if (ref.length == key.size() &&
            (ref.length == 0 ||
             std::memcmp(arena_ + ref.offset, key.data(), ref.length) == 0)) {
          return id;
        }
      }
      slot = (slot + 1) & mask_;
    }
    return -1;  // full table (corrupt): probe cap reached
  }

  bool Contains(std::string_view key) const { return Find(key) >= 0; }

  /// The key for `id`; a view into the mapped arena, valid while the
  /// mapping owner is alive. Same guard as Find(): a corrupt extent
  /// yields an empty view rather than a read outside the arena.
  std::string_view key(int id) const {
    PAE_DCHECK_GE(id, 0);
    PAE_DCHECK_LT(static_cast<size_t>(id), key_count_);
    const PackedStringKey& ref = keys_[static_cast<size_t>(id)];
    if (ref.offset > arena_bytes_ || ref.length > arena_bytes_ - ref.offset) {
      return std::string_view();
    }
    return std::string_view(arena_ + ref.offset, ref.length);
  }

  size_t size() const { return key_count_; }
  bool empty() const { return key_count_ == 0; }
  bool bound() const { return slots_ != nullptr; }

 private:
  const PackedStringSlot* slots_ = nullptr;
  size_t mask_ = 0;
  const PackedStringKey* keys_ = nullptr;
  size_t key_count_ = 0;
  const char* arena_ = nullptr;
  size_t arena_bytes_ = 0;
};

inline int FlatStringInterner::Find(std::string_view key) const {
  // Probe-termination invariant: the table always keeps free slots
  // (load factor <= 7/8), so the linear probe below cannot spin.
  PAE_DCHECK_LT(keys_.size(), slots_.size());
  PAE_DCHECK_EQ(mask_, slots_.size() - 1);
  const uint64_t hash = Hash(key);
  size_t slot = hash & mask_;
  while (slots_[slot].id != kEmpty) {
    if (slots_[slot].hash == hash) {
      const auto& [ptr, len] = keys_[static_cast<size_t>(slots_[slot].id)];
      if (len == key.size() &&
          (len == 0 || std::memcmp(ptr, key.data(), len) == 0)) {
        return slots_[slot].id;
      }
    }
    slot = (slot + 1) & mask_;
  }
  return -1;
}

}  // namespace pae::util

#endif  // PAE_UTIL_INTERNER_H_
