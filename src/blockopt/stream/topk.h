#ifndef BLOCKOPTR_BLOCKOPT_STREAM_TOPK_H_
#define BLOCKOPTR_BLOCKOPT_STREAM_TOPK_H_

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/interner.h"

namespace blockoptr {

/// Space-saving heavy-hitter sketch (Metwally et al.) over interned key
/// ids: at most `capacity` counters, deterministic eviction (smallest
/// count, then smallest key string). Ties never fall back to id order:
/// ids are assigned in first-intern order, which varies with thread
/// interleaving under a parallel sweep, so the sweep-determinism contract
/// needs the key itself. Each counter carries the classic
/// overestimation bound `error`: the true frequency of `id` lies in
/// [count - error, count].
///
/// Counters live in parallel flat arrays (ids / counts / errors / keys)
/// scanned linearly — a sketch is small by design (default capacity 32),
/// and the hot-path id scan then touches two cache lines instead of a
/// dozen interleaved structs, which matters because the always-on failure
/// path re-warms the sketch from cache on every offer. Each slot keeps
/// the interner's view of its key, resolved once when the slot is
/// (re)assigned, so tie-breaks compare strings without taking the
/// interner's lock. Ids must name interned keys.
class SpaceSavingTopK {
 public:
  struct Counter {
    KeyId id = kInvalidKeyId;
    uint64_t count = 0;
    uint64_t error = 0;  // overestimation bound inherited on eviction
    std::string_view key;  // the interned key of `id`
  };

  explicit SpaceSavingTopK(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    ids_.reserve(capacity_);
    counts_.reserve(capacity_);
    errors_.reserve(capacity_);
    keys_.reserve(capacity_);
  }

  /// Observes one occurrence of `id` (weight defaults to 1). One fused
  /// pass serves both outcomes: it looks for a tracked `id` (a hit
  /// transposes the counter one slot forward so frequent ids cluster
  /// near the front and exit early) while simultaneously tracking the
  /// eviction victim, so a miss — the common case when the key stream
  /// has no heavy hitters and every offer evicts — costs one scan, not a
  /// failed hit scan followed by a victim scan. Slot order is internal
  /// only — every read path (Entries, Merge, eviction) is
  /// order-insensitive, so the sweep-determinism contract holds.
  void Offer(KeyId id, uint64_t weight = 1) {
    size_t victim = 0;
    for (size_t i = 0; i < ids_.size(); ++i) {
      if (ids_[i] == id) {
        counts_[i] += weight;
        if (i > 0) {
          std::swap(ids_[i - 1], ids_[i]);
          std::swap(counts_[i - 1], counts_[i]);
          std::swap(errors_[i - 1], errors_[i]);
          std::swap(keys_[i - 1], keys_[i]);
        }
        return;
      }
      if (counts_[i] < counts_[victim] ||
          (counts_[i] == counts_[victim] && keys_[i] < keys_[victim])) {
        victim = i;
      }
    }
    const std::string_view key = GlobalKeyInterner().KeyForId(id);
    if (ids_.size() < capacity_) {
      ids_.push_back(id);
      counts_.push_back(weight);
      errors_.push_back(0);
      keys_.push_back(key);
      return;
    }
    // Evict the (min count, min key) counter; the newcomer inherits its
    // count as the error bound.
    const uint64_t floor = counts_[victim];
    ids_[victim] = id;
    counts_[victim] = floor + weight;
    errors_[victim] = floor;
    keys_[victim] = key;
  }

  size_t capacity() const { return capacity_; }
  size_t size() const { return ids_.size(); }
  uint64_t total_offered() const {
    uint64_t t = 0;
    for (size_t i = 0; i < ids_.size(); ++i) t += counts_[i] - errors_[i];
    return t;
  }

  /// Counters sorted by (count desc, key asc) — deterministic.
  std::vector<Counter> Entries() const {
    std::vector<Counter> out;
    out.reserve(ids_.size());
    for (size_t i = 0; i < ids_.size(); ++i) {
      out.push_back(Counter{ids_[i], counts_[i], errors_[i], keys_[i]});
    }
    std::sort(out.begin(), out.end(), ByCountThenKey);
    return out;
  }

  /// Merges another sketch into this one (mergeable-summaries union):
  /// per-id counts and error bounds sum, and an id tracked by only one
  /// sketch inherits the other sketch's eviction floor (its minimum
  /// counter when at capacity — an upper bound on anything it absorbed)
  /// as both count and error contribution, preserving the overestimate
  /// invariant: the true combined frequency stays in [count - error,
  /// count]. The union then keeps the top `capacity` counters, ordered
  /// by (count desc, key asc) over the full union before truncation, so
  /// the result is deterministic regardless of merge order.
  void Merge(const SpaceSavingTopK& other) {
    if (other.ids_.empty()) return;
    const uint64_t floor_this = FloorBound();
    const uint64_t floor_other = other.FloorBound();
    std::vector<Counter> merged;
    merged.reserve(ids_.size() + other.ids_.size());
    for (size_t i = 0; i < ids_.size(); ++i) {
      const size_t oi = other.Find(ids_[i]);
      if (oi != kNotFound) {
        merged.push_back(Counter{ids_[i], counts_[i] + other.counts_[oi],
                                 errors_[i] + other.errors_[oi], keys_[i]});
      } else {
        merged.push_back(Counter{ids_[i], counts_[i] + floor_other,
                                 errors_[i] + floor_other, keys_[i]});
      }
    }
    for (size_t oi = 0; oi < other.ids_.size(); ++oi) {
      if (Find(other.ids_[oi]) != kNotFound) continue;  // already paired
      merged.push_back(Counter{other.ids_[oi], other.counts_[oi] + floor_this,
                               other.errors_[oi] + floor_this,
                               other.keys_[oi]});
    }
    std::sort(merged.begin(), merged.end(), ByCountThenKey);
    if (merged.size() > capacity_) merged.resize(capacity_);
    Clear();
    for (const Counter& c : merged) {
      ids_.push_back(c.id);
      counts_.push_back(c.count);
      errors_.push_back(c.error);
      keys_.push_back(c.key);
    }
  }

  void Clear() {
    ids_.clear();
    counts_.clear();
    errors_.clear();
    keys_.clear();
  }

 private:
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  static bool ByCountThenKey(const Counter& a, const Counter& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  }

  size_t Find(KeyId id) const {
    for (size_t i = 0; i < ids_.size(); ++i) {
      if (ids_[i] == id) return i;
    }
    return kNotFound;
  }

  /// Upper bound on the count any evicted (untracked) id may have
  /// absorbed: the minimum counter once the sketch is at capacity, 0
  /// before (nothing has ever been evicted).
  uint64_t FloorBound() const {
    if (ids_.size() < capacity_) return 0;
    uint64_t floor = counts_.front();
    for (const uint64_t c : counts_) floor = std::min(floor, c);
    return floor;
  }

  size_t capacity_;
  std::vector<KeyId> ids_;
  std::vector<uint64_t> counts_;
  std::vector<uint64_t> errors_;
  std::vector<std::string_view> keys_;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_BLOCKOPT_STREAM_TOPK_H_
