#include "ledger/rwset.h"

#include <algorithm>
#include <iterator>

namespace blockoptr {

namespace {
void SortDedup(std::vector<std::string>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}
}  // namespace

std::vector<std::string> ReadWriteSet::AccessedKeys() const {
  std::vector<std::string> keys = ReadKeys();
  for (const auto& w : writes) keys.push_back(w.key);
  SortDedup(keys);
  return keys;
}

std::vector<std::string> ReadWriteSet::ReadKeys() const {
  std::vector<std::string> keys;
  keys.reserve(reads.size());
  for (const auto& r : reads) keys.push_back(r.key);
  for (const auto& rq : range_queries) {
    for (const auto& r : rq.results) keys.emplace_back(r.key());
  }
  SortDedup(keys);
  return keys;
}

std::vector<std::string> ReadWriteSet::WriteKeys() const {
  std::vector<std::string> keys;
  keys.reserve(writes.size());
  for (const auto& w : writes) keys.push_back(w.key);
  SortDedup(keys);
  return keys;
}

namespace {
void SortDedupIds(std::vector<KeyId>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}
}  // namespace

void ReadWriteSet::EnsureIdViews() const {
  size_t range_results = 0;
  for (const auto& rq : range_queries) range_results += rq.results.size();
  KeyIdViews& c = id_views;
  if (c.reads_seen == reads.size() && c.writes_seen == writes.size() &&
      c.ranges_seen == range_queries.size() &&
      c.range_results_seen == range_results) {
    return;
  }
  Interner& interner = GlobalKeyInterner();
  c.read_ids.clear();
  c.read_ids.reserve(reads.size() + range_results);
  for (const auto& r : reads) c.read_ids.push_back(interner.Intern(r.key));
  for (const auto& rq : range_queries) {
    for (const auto& r : rq.results) c.read_ids.push_back(r.id);
  }
  SortDedupIds(c.read_ids);
  c.write_ids.clear();
  c.write_ids.reserve(writes.size());
  for (const auto& w : writes) c.write_ids.push_back(interner.Intern(w.key));
  SortDedupIds(c.write_ids);
  c.accessed_ids.clear();
  c.accessed_ids.reserve(c.read_ids.size() + c.write_ids.size());
  std::set_union(c.read_ids.begin(), c.read_ids.end(), c.write_ids.begin(),
                 c.write_ids.end(), std::back_inserter(c.accessed_ids));
  c.reads_seen = reads.size();
  c.writes_seen = writes.size();
  c.ranges_seen = range_queries.size();
  c.range_results_seen = range_results;
}

const std::vector<KeyId>& ReadWriteSet::ReadKeyIds() const {
  EnsureIdViews();
  return id_views.read_ids;
}

const std::vector<KeyId>& ReadWriteSet::WriteKeyIds() const {
  EnsureIdViews();
  return id_views.write_ids;
}

const std::vector<KeyId>& ReadWriteSet::AccessedKeyIds() const {
  EnsureIdViews();
  return id_views.accessed_ids;
}

bool ReadWriteSet::HasWriteTo(const std::string& key) const {
  return std::any_of(writes.begin(), writes.end(),
                     [&](const WriteItem& w) { return w.key == key; });
}

bool ReadWriteSet::HasReadOf(const std::string& key) const {
  if (std::any_of(reads.begin(), reads.end(),
                  [&](const ReadItem& r) { return r.key == key; })) {
    return true;
  }
  if (range_queries.empty()) return false;
  // Range results name stored keys, which are all interned: a key the
  // interner has never seen cannot be among them.
  const KeyId id = GlobalKeyInterner().Lookup(key);
  if (id == kInvalidKeyId) return false;
  for (const auto& rq : range_queries) {
    if (std::any_of(rq.results.begin(), rq.results.end(),
                    [&](const RangeResult& r) { return r.id == id; })) {
      return true;
    }
  }
  return false;
}

}  // namespace blockoptr
