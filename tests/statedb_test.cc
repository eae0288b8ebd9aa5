#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/rng.h"
#include "statedb/versioned_store.h"

namespace blockoptr {
namespace {

TEST(VersionTest, OrderingAndEquality) {
  Version a{1, 2};
  Version b{1, 3};
  Version c{2, 0};
  EXPECT_EQ(a, (Version{1, 2}));
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a.ToString(), "1:2");
}

TEST(VersionedStoreTest, GetMissingReturnsNullopt) {
  VersionedStore store;
  EXPECT_FALSE(store.Get("nope").has_value());
  EXPECT_FALSE(store.Contains("nope"));
  EXPECT_EQ(store.size(), 0u);
}

TEST(VersionedStoreTest, ApplyThenGet) {
  VersionedStore store;
  store.Apply("k", "v1", false, Version{1, 0});
  auto vv = store.Get("k");
  ASSERT_TRUE(vv.has_value());
  EXPECT_EQ(vv->value, "v1");
  EXPECT_EQ(vv->version, (Version{1, 0}));
}

TEST(VersionedStoreTest, OverwriteBumpsVersion) {
  VersionedStore store;
  store.Apply("k", "v1", false, Version{1, 0});
  store.Apply("k", "v2", false, Version{2, 5});
  auto vv = store.Get("k");
  ASSERT_TRUE(vv.has_value());
  EXPECT_EQ(vv->value, "v2");
  EXPECT_EQ(vv->version, (Version{2, 5}));
  EXPECT_EQ(store.size(), 1u);
}

TEST(VersionedStoreTest, DeleteRemovesKey) {
  VersionedStore store;
  store.Apply("k", "v", false, Version{1, 0});
  store.Apply("k", "", true, Version{2, 0});
  EXPECT_FALSE(store.Contains("k"));
  EXPECT_EQ(store.size(), 0u);
}

TEST(VersionedStoreTest, DeleteMissingKeyIsNoop) {
  VersionedStore store;
  store.Apply("k", "", true, Version{1, 0});
  EXPECT_EQ(store.size(), 0u);
}

TEST(VersionedStoreTest, RangeIsOrderedAndHalfOpen) {
  VersionedStore store;
  for (const char* k : {"a", "b", "c", "d"}) {
    store.Apply(k, std::string("v") + k, false, Version{1, 0});
  }
  auto range = store.Range("b", "d");
  ASSERT_EQ(range.size(), 2u);
  EXPECT_EQ(range[0].first, "b");
  EXPECT_EQ(range[1].first, "c");
}

TEST(VersionedStoreTest, RangeWithEmptyEndScansToEnd) {
  VersionedStore store;
  store.Apply("a", "1", false, Version{1, 0});
  store.Apply("z", "2", false, Version{1, 1});
  auto range = store.Range("b", "");
  ASSERT_EQ(range.size(), 1u);
  EXPECT_EQ(range[0].first, "z");
}

TEST(VersionedStoreTest, RangeEmptyWhenNoMatch) {
  VersionedStore store;
  store.Apply("m", "1", false, Version{1, 0});
  EXPECT_TRUE(store.Range("n", "z").empty());
  EXPECT_TRUE(store.Range("a", "m").empty());  // end exclusive
  EXPECT_TRUE(store.Range("z", "a").empty());  // inverted bounds
  EXPECT_TRUE(store.Range("m", "m").empty());
}

TEST(VersionedStoreTest, RangeSeesLatestVersions) {
  VersionedStore store;
  store.Apply("k1", "old", false, Version{1, 0});
  store.Apply("k1", "new", false, Version{3, 2});
  auto range = store.Range("k", "l");
  ASSERT_EQ(range.size(), 1u);
  EXPECT_EQ(range[0].second.value, "new");
  EXPECT_EQ(range[0].second.version, (Version{3, 2}));
}

TEST(VersionedStoreTest, AppliedHeightTracking) {
  VersionedStore store;
  EXPECT_EQ(store.applied_height(), 0u);
  store.MarkBlockApplied(7);
  EXPECT_EQ(store.applied_height(), 7u);
}

TEST(VersionedStoreTest, PeekReturnsStablePointerWithoutCopy) {
  VersionedStore store;
  store.Apply("k", "v1", false, Version{1, 0});
  const VersionedValue* vv = store.Peek("k");
  ASSERT_NE(vv, nullptr);
  EXPECT_EQ(vv->value, "v1");
  // Overwrite updates in place: the node (and pointer) survives.
  store.Apply("k", "v2", false, Version{2, 0});
  EXPECT_EQ(vv->value, "v2");
  EXPECT_EQ(vv->version, (Version{2, 0}));
  EXPECT_EQ(store.Peek("never-written"), nullptr);
}

TEST(VersionedStoreTest, RangeVisitMatchesRangeAndStopsEarly) {
  VersionedStore store;
  for (int i = 0; i < 8; ++i) {
    store.Apply("rv~k" + std::to_string(i), "v" + std::to_string(i), false,
                Version{1, static_cast<uint32_t>(i)});
  }
  std::vector<std::pair<std::string, VersionedValue>> visited;
  store.RangeVisit("rv~k2", "rv~k6",
                   [&](std::string_view k, const VersionedValue& vv) {
                     visited.emplace_back(std::string(k), vv);
                     return true;
                   });
  auto materialized = store.Range("rv~k2", "rv~k6");
  ASSERT_EQ(visited.size(), materialized.size());
  for (size_t i = 0; i < visited.size(); ++i) {
    EXPECT_EQ(visited[i].first, materialized[i].first);
    EXPECT_EQ(visited[i].second.value, materialized[i].second.value);
    EXPECT_EQ(visited[i].second.version, materialized[i].second.version);
  }
  int count = 0;
  store.RangeVisit("rv~k0", "",
                   [&](std::string_view, const VersionedValue&) {
                     return ++count < 3;  // stop after three entries
                   });
  EXPECT_EQ(count, 3);
}

TEST(VersionedStoreTest, CopiedStoreAnswersFromItsOwnIndex) {
  VersionedStore store;
  store.Apply("copy~a", "1", false, Version{1, 0});
  store.Apply("copy~b", "2", false, Version{1, 1});
  VersionedStore copy = store;
  // Diverge the two stores; each index must follow its own map.
  store.Apply("copy~a", "", true, Version{2, 0});
  copy.Apply("copy~b", "22", false, Version{2, 1});
  EXPECT_EQ(store.Peek("copy~a"), nullptr);
  ASSERT_NE(copy.Peek("copy~a"), nullptr);
  EXPECT_EQ(copy.Peek("copy~a")->value, "1");
  EXPECT_EQ(store.Peek("copy~b")->value, "2");
  EXPECT_EQ(copy.Peek("copy~b")->value, "22");
  VersionedStore assigned;
  assigned.Apply("copy~old", "x", false, Version{1, 0});
  assigned = copy;
  EXPECT_EQ(assigned.Peek("copy~old"), nullptr);
  EXPECT_EQ(assigned.Peek("copy~b")->value, "22");
}

TEST(VersionedStoreTest, ByIdEntryPointsMatchStringOnes) {
  VersionedStore store;
  Interner& interner = GlobalKeyInterner();
  KeyId id = interner.Intern("byid~k");
  store.ApplyById(id, "v1", false, Version{1, 0});
  EXPECT_EQ(store.Peek("byid~k"), store.PeekById(id));
  ASSERT_NE(store.PeekById(id), nullptr);
  EXPECT_EQ(store.PeekById(id)->value, "v1");
  EXPECT_EQ(store.PeekById(kInvalidKeyId), nullptr);
  store.ApplyById(id, "", true, Version{2, 0});
  EXPECT_EQ(store.PeekById(id), nullptr);
  EXPECT_FALSE(store.Contains("byid~k"));
}

// Property: after any randomized Apply/delete sequence, the KeyId-hashed
// point-read index and the ordered map answer identically — Peek/Get/
// Contains against every key ever touched agree with a reference model,
// and the full Range scan (served by the ordered map) lists exactly the
// keys the point-read path (served by the hash index) says exist.
TEST(VersionedStoreProperty, HashIndexAgreesWithOrderedMap) {
  Rng rng(2024);
  for (int round = 0; round < 20; ++round) {
    VersionedStore store;
    std::map<std::string, VersionedValue> reference;
    const uint64_t key_space = 40;
    for (int step = 0; step < 400; ++step) {
      std::string key =
          "prop~key" + std::to_string(rng.NextBelow(key_space));
      Version version{static_cast<uint64_t>(step), 0};
      if (rng.NextBool(0.25)) {
        store.Apply(key, "", true, version);
        reference.erase(key);
      } else {
        std::string value = "v" + std::to_string(step);
        store.Apply(key, value, false, version);
        reference[key] = VersionedValue{value, version};
      }
    }
    ASSERT_EQ(store.size(), reference.size());
    for (uint64_t k = 0; k < key_space; ++k) {
      std::string key = "prop~key" + std::to_string(k);
      auto it = reference.find(key);
      const VersionedValue* peeked = store.Peek(key);
      auto got = store.Get(key);
      ASSERT_EQ(store.Contains(key), it != reference.end()) << key;
      if (it == reference.end()) {
        EXPECT_EQ(peeked, nullptr) << key;
        EXPECT_FALSE(got.has_value()) << key;
      } else {
        ASSERT_NE(peeked, nullptr) << key;
        EXPECT_EQ(peeked->value, it->second.value) << key;
        EXPECT_EQ(peeked->version, it->second.version) << key;
        EXPECT_EQ(peeked->id, GlobalKeyInterner().Lookup(key)) << key;
        ASSERT_TRUE(got.has_value()) << key;
        EXPECT_EQ(got->value, it->second.value) << key;
      }
    }
    auto range = store.Range("", "");
    ASSERT_EQ(range.size(), reference.size());
    // A copy rebuilds its index; the entries keep their key ids.
    const VersionedStore copy = store;
    size_t i = 0;
    for (const auto& [key, vv] : reference) {
      EXPECT_EQ(range[i].first, key);
      EXPECT_EQ(range[i].second.version, vv.version);
      EXPECT_EQ(range[i].second.id, GlobalKeyInterner().Lookup(key)) << key;
      ASSERT_NE(copy.Peek(key), nullptr) << key;
      EXPECT_EQ(copy.Peek(key)->id, range[i].second.id) << key;
      ++i;
    }
  }
}

TEST(VersionedStoreTest, NamespacedKeysStayDisjoint) {
  // Two chaincode namespaces writing "the same" key never collide — the
  // property smart-contract partitioning relies on.
  VersionedStore store;
  store.Apply("drmplay~MUSIC_1", "5", false, Version{1, 0});
  store.Apply("drmmeta~MUSIC_1", "meta", false, Version{1, 1});
  EXPECT_EQ(store.Get("drmplay~MUSIC_1")->value, "5");
  EXPECT_EQ(store.Get("drmmeta~MUSIC_1")->value, "meta");
  EXPECT_EQ(store.Range("drmplay~", "drmplay\x7f").size(), 1u);
}

}  // namespace
}  // namespace blockoptr
