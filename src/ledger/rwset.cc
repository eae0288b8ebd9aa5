#include "ledger/rwset.h"

#include <algorithm>
#include <iterator>

namespace blockoptr {

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
  c.read_ids.clear();
  c.read_ids.reserve(reads.size() + range_results);
  for (const auto& r : reads) c.read_ids.push_back(r.id);
  for (const auto& rq : range_queries) {
    for (const auto& r : rq.results) c.read_ids.push_back(r.id);
  }
  SortDedupIds(c.read_ids);
  c.write_ids.clear();
  c.write_ids.reserve(writes.size());
  for (const auto& w : writes) c.write_ids.push_back(w.id);
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

bool ReadWriteSet::HasReadOf(KeyId id) const {
  if (std::any_of(reads.begin(), reads.end(),
                  [id](const ReadItem& r) { return r.id == id; })) {
    return true;
  }
  return std::any_of(
      range_queries.begin(), range_queries.end(),
      [id](const RangeQueryInfo& rq) {
        return std::any_of(rq.results.begin(), rq.results.end(),
                           [id](const RangeResult& r) { return r.id == id; });
      });
}

}  // namespace blockoptr
