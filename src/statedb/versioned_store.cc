#include "statedb/versioned_store.h"

#include <algorithm>

namespace blockoptr {

std::string Version::ToString() const {
  return std::to_string(block_num) + ":" + std::to_string(tx_num);
}

VersionedStore::VersionedStore(const VersionedStore& other)
    : map_(other.map_), applied_height_(other.applied_height_) {
  RebuildIndex();
}

VersionedStore& VersionedStore::operator=(const VersionedStore& other) {
  if (this == &other) return *this;
  map_ = other.map_;
  applied_height_ = other.applied_height_;
  RebuildIndex();
  return *this;
}

void VersionedStore::EnsureIndexSlot(KeyId id) {
  if (id < index_.size()) return;
  size_t target = static_cast<size_t>(id) + 1;
  if (target > index_.capacity()) {
    index_.reserve(std::max(target, index_.capacity() * 2));
  }
  index_.resize(target, nullptr);
}

void VersionedStore::RebuildIndex() {
  index_.assign(index_.size(), nullptr);
  Interner& interner = GlobalKeyInterner();
  for (auto& [key, vv] : map_) {
    vv.id = interner.Intern(key);
    EnsureIndexSlot(vv.id);
    index_[vv.id] = &vv;
  }
}

const VersionedValue* VersionedStore::Peek(std::string_view key) const {
  // A key never interned was never applied to any store, so an interner
  // miss already proves absence without touching the map.
  KeyId id = GlobalKeyInterner().Lookup(key);
  if (id >= index_.size()) return nullptr;  // covers kInvalidKeyId too
  return index_[id];
}

std::optional<VersionedValue> VersionedStore::Get(std::string_view key) const {
  const VersionedValue* vv = Peek(key);
  if (vv == nullptr) return std::nullopt;
  return *vv;
}

bool VersionedStore::Contains(std::string_view key) const {
  return Peek(key) != nullptr;
}

std::vector<std::pair<std::string, VersionedValue>> VersionedStore::Range(
    std::string_view start_key, std::string_view end_key) const {
  std::vector<std::pair<std::string, VersionedValue>> out;
  RangeVisit(start_key, end_key,
             [&](std::string_view key, const VersionedValue& vv) {
               out.emplace_back(std::string(key), vv);
               return true;
             });
  return out;
}

void VersionedStore::Apply(std::string_view key, std::string_view value,
                           bool is_delete, Version version) {
  ApplyById(GlobalKeyInterner().Intern(key), value, is_delete, version);
}

void VersionedStore::ApplyById(KeyId id, std::string_view value,
                               bool is_delete, Version version) {
  EnsureIndexSlot(id);
  VersionedValue*& slot = index_[id];
  if (is_delete) {
    if (slot == nullptr) return;
    slot = nullptr;
    map_.erase(map_.find(GlobalKeyInterner().KeyForId(id)));
    return;
  }
  if (slot != nullptr) {
    // Overwrite in place: no map lookup, no key string.
    slot->value.assign(value);
    slot->version = version;
    return;
  }
  auto mit =
      map_.try_emplace(std::string(GlobalKeyInterner().KeyForId(id))).first;
  mit->second.value = std::string(value);
  mit->second.version = version;
  mit->second.id = id;
  slot = &mit->second;
}

}  // namespace blockoptr
