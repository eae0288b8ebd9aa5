#ifndef BLOCKOPTR_STATEDB_VERSIONED_STORE_H_
#define BLOCKOPTR_STATEDB_VERSIONED_STORE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/interner.h"

namespace blockoptr {

/// The version of a committed key: the (block, tx-in-block) coordinates of
/// the transaction that last wrote it. Fabric's MVCC validation compares
/// the version recorded in a transaction's read set against the current
/// committed version — a mismatch is an MVCC read conflict.
struct Version {
  uint64_t block_num = 0;
  uint32_t tx_num = 0;

  friend bool operator==(const Version&, const Version&) = default;
  friend auto operator<=>(const Version&, const Version&) = default;

  std::string ToString() const;
};

/// A committed value together with its version and its key's interned id
/// (set by the store on insert, so a range scan can record results by id
/// without touching the key string).
struct VersionedValue {
  std::string value;
  Version version;
  KeyId id = kInvalidKeyId;
};

/// The world-state database of a single peer: the latest committed value
/// and version per key, with ordered iteration for range queries. Each peer
/// in the simulated network owns one store; peers may lag behind the chain
/// tip (they apply blocks with queueing delay), which is what creates
/// endorsement-time staleness.
///
/// Two indexes share one copy of the data:
///  * an ordered map (key -> VersionedValue) backing Range()/RangeVisit(),
///    the same trade RocksDB's sorted memtable makes for iterator support;
///  * a KeyId-direct point-read index (Peek()/Get()/Contains()), because
///    the point read is the MVCC inner loop. KeyIds are dense (the
///    interner assigns 0,1,2,...), so the index is a flat
///    vector<VersionedValue*> subscripted by id — one string hash in the
///    interner, one array load, instead of O(log n) string comparisons
///    over shared-prefix keys. Slots for keys this store never held are
///    nullptr; memory is bounded by the process-wide distinct-key count
///    (8 bytes per key).
/// Apply() keeps both in sync; the index holds pointers into the
/// ordered map's nodes (node-based, so stable until erased).
class VersionedStore {
 public:
  VersionedStore() = default;
  // Copies rebuild the hash index: copied pointers would refer into the
  // source map's nodes. Moves keep it: map nodes survive a move.
  VersionedStore(const VersionedStore& other);
  VersionedStore& operator=(const VersionedStore& other);
  VersionedStore(VersionedStore&&) = default;
  VersionedStore& operator=(VersionedStore&&) = default;

  /// Latest committed entry for `key` without copying the value, or
  /// nullptr if absent. The pointer is valid until the key is deleted or
  /// the store destroyed. This is the validation hot path.
  const VersionedValue* Peek(std::string_view key) const;

  /// Peek() for a caller that already holds the key's interned id (a
  /// ReadItem's): a single bounds-checked array load, no string hash.
  /// Passing kInvalidKeyId is allowed and returns nullptr.
  const VersionedValue* PeekById(KeyId id) const {
    return id < index_.size() ? index_[id] : nullptr;
  }

  /// Latest committed value for `key`, or nullopt if absent (copies the
  /// value; prefer Peek() in hot loops).
  std::optional<VersionedValue> Get(std::string_view key) const;

  /// True if the key currently exists.
  bool Contains(std::string_view key) const;

  /// All keys in [start_key, end_key) in lexicographic order. An empty
  /// `end_key` means "to the end". Mirrors Fabric's GetStateByRange.
  std::vector<std::pair<std::string, VersionedValue>> Range(
      std::string_view start_key, std::string_view end_key) const;

  /// Copy-free ordered scan of [start_key, end_key): calls
  /// `visit(key, versioned_value)` per entry until it returns false or the
  /// range is exhausted. A non-empty `end_key` at or below `start_key` is
  /// an empty range. Phantom re-validation and endorsement-time range
  /// simulation use this instead of materializing Range() vectors.
  template <typename Visitor>
  void RangeVisit(std::string_view start_key, std::string_view end_key,
                  Visitor&& visit) const {
    if (!end_key.empty() && end_key <= start_key) return;
    auto it = map_.lower_bound(start_key);
    auto end = end_key.empty() ? map_.end() : map_.lower_bound(end_key);
    for (; it != end; ++it) {
      if (!visit(std::string_view(it->first), it->second)) return;
    }
  }

  /// Writes or deletes a single key at `version`, interning it (used to
  /// seed state).
  void Apply(std::string_view key, std::string_view value, bool is_delete,
             Version version);

  /// Apply() for a caller that holds the key's interned id (block commit
  /// applies RW-set writes this way). The key string is resolved through
  /// the interner only when a map node is inserted or erased; an
  /// overwrite is one array load.
  void ApplyById(KeyId id, std::string_view value, bool is_delete,
                 Version version);

  /// Height of the last block applied via MarkBlockApplied.
  uint64_t applied_height() const { return applied_height_; }
  void MarkBlockApplied(uint64_t block_num) { applied_height_ = block_num; }

  size_t size() const { return map_.size(); }

 private:
  void RebuildIndex();
  // Grows index_ so `id` is addressable (geometric growth: appending n
  // distinct keys costs O(n) total, not O(n^2) of per-id resizes).
  void EnsureIndexSlot(KeyId id);

  std::map<std::string, VersionedValue, std::less<>> map_;
  std::vector<VersionedValue*> index_;  // subscript: KeyId; nullptr = absent
  uint64_t applied_height_ = 0;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_STATEDB_VERSIONED_STORE_H_
