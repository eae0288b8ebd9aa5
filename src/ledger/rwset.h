#ifndef BLOCKOPTR_LEDGER_RWSET_H_
#define BLOCKOPTR_LEDGER_RWSET_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "statedb/versioned_store.h"

namespace blockoptr {

/// One key read during simulation/endorsement: the interned id of the
/// namespaced key and the committed version observed at that time (nullopt
/// when the key did not exist). The chaincode shim interns the key once;
/// every later consumer compares ids. Equal ids mean equal keys (the
/// interner is process-wide).
struct ReadItem {
  KeyId id = kInvalidKeyId;
  std::optional<Version> version;

  /// The key string, resolved through the interner (stable for the
  /// process lifetime).
  std::string_view key() const { return GlobalKeyInterner().KeyForId(id); }

  friend bool operator==(const ReadItem&, const ReadItem&) = default;
};

/// One key written (or deleted) by the transaction, named by id like
/// ReadItem.
struct WriteItem {
  KeyId id = kInvalidKeyId;
  std::string value;
  bool is_delete = false;

  std::string_view key() const { return GlobalKeyInterner().KeyForId(id); }

  friend bool operator==(const WriteItem&, const WriteItem&) = default;
};

/// One range-query result: the interned id of the key and the committed
/// version observed. A result always names an existing key, so the
/// version is never absent. Equal ids mean equal keys (the interner is
/// process-wide), so comparing results compares (key, version) pairs.
struct RangeResult {
  KeyId id = kInvalidKeyId;
  Version version;

  /// The key string, resolved through the interner (stable for the
  /// process lifetime).
  std::string_view key() const { return GlobalKeyInterner().KeyForId(id); }

  friend bool operator==(const RangeResult&, const RangeResult&) = default;
};

/// A range query executed during endorsement: the bounds plus the exact
/// (key, version) results observed, in store key order. Validation
/// re-executes the range against commit-time state; any difference is a
/// *phantom read conflict*.
struct RangeQueryInfo {
  std::string start_key;
  std::string end_key;  // empty = unbounded
  std::vector<RangeResult> results;

  friend bool operator==(const RangeQueryInfo&, const RangeQueryInfo&) =
      default;
};

/// The read-write set produced by endorsing (simulating) a transaction.
/// This is the object Fabric's validators check and the primary artefact
/// BlockOptR's analysis consumes (paper §4.1 attribute 6).
struct ReadWriteSet {
  std::vector<ReadItem> reads;
  std::vector<WriteItem> writes;
  std::vector<RangeQueryInfo> range_queries;

  /// Lazily built, cached sorted-unique KeyId views of RS(x) (point reads
  /// and range results), WS(x) and RWS(x) — the paper's key sets.
  /// Invalidated by size: the cache is rebuilt whenever the number of
  /// reads, writes, range queries, or range results has changed since it
  /// was built (every mutation path in the codebase appends items;
  /// replacing a key in place without changing any count is not
  /// supported). Not thread-safe: views must be built and read from the
  /// owning thread.
  struct KeyIdViews {
    std::vector<KeyId> read_ids;
    std::vector<KeyId> write_ids;
    std::vector<KeyId> accessed_ids;
    size_t reads_seen = static_cast<size_t>(-1);
    size_t writes_seen = static_cast<size_t>(-1);
    size_t ranges_seen = static_cast<size_t>(-1);
    size_t range_results_seen = static_cast<size_t>(-1);
  };
  mutable KeyIdViews id_views;

  // Equality is over the recorded data only, never the derived ID cache.
  friend bool operator==(const ReadWriteSet& a, const ReadWriteSet& b) {
    return a.reads == b.reads && a.writes == b.writes &&
           a.range_queries == b.range_queries;
  }

  /// Interned-ID views of RS(x)/WS(x)/RWS(x): sorted by KeyId, deduped,
  /// cached across calls. ID sort order is NOT lexicographic key order —
  /// use the views for membership, merge, and intersection only.
  const std::vector<KeyId>& ReadKeyIds() const;
  const std::vector<KeyId>& WriteKeyIds() const;
  const std::vector<KeyId>& AccessedKeyIds() const;

  /// True if `id` is in RS(x): a point read or a range result.
  bool HasReadOf(KeyId id) const;

 private:
  void EnsureIdViews() const;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_LEDGER_RWSET_H_
