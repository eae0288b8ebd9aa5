#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chaincode/chaincode.h"
#include "chaincode/tx_context.h"
#include "statedb/versioned_store.h"

namespace blockoptr {
namespace {

VersionedStore SeededStore() {
  VersionedStore store;
  store.Apply("cc~a", "va", false, Version{1, 0});
  store.Apply("cc~b", "vb", false, Version{1, 1});
  store.Apply("cc~c", "vc", false, Version{2, 0});
  store.Apply("other~a", "other", false, Version{1, 2});
  return store;
}

TEST(TxContextTest, GetStateRecordsReadWithVersion) {
  VersionedStore store = SeededStore();
  TxContext ctx(&store, "cc");
  auto v = ctx.GetState("a");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "va");
  ASSERT_EQ(ctx.rwset().reads.size(), 1u);
  EXPECT_EQ(ctx.rwset().reads[0].key(), "cc~a");
  EXPECT_EQ(ctx.rwset().reads[0].version, (Version{1, 0}));
}

TEST(TxContextTest, GetMissingRecordsNulloptVersion) {
  VersionedStore store = SeededStore();
  TxContext ctx(&store, "cc");
  EXPECT_FALSE(ctx.GetState("zz").has_value());
  ASSERT_EQ(ctx.rwset().reads.size(), 1u);
  EXPECT_FALSE(ctx.rwset().reads[0].version.has_value());
}

TEST(TxContextTest, RepeatedReadsRecordOnce) {
  VersionedStore store = SeededStore();
  TxContext ctx(&store, "cc");
  ctx.GetState("a");
  ctx.GetState("a");
  ctx.GetState("b");
  EXPECT_EQ(ctx.rwset().reads.size(), 2u);
}

TEST(TxContextTest, TransactionDoesNotSeeItsOwnWrites) {
  // Fabric semantics: GetState after PutState returns the committed value,
  // not the staged write.
  VersionedStore store = SeededStore();
  TxContext ctx(&store, "cc");
  ctx.PutState("a", "new");
  auto v = ctx.GetState("a");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "va");
}

TEST(TxContextTest, LastWriteWins) {
  VersionedStore store = SeededStore();
  TxContext ctx(&store, "cc");
  ctx.PutState("x", "1");
  ctx.PutState("x", "2");
  ASSERT_EQ(ctx.rwset().writes.size(), 1u);
  EXPECT_EQ(ctx.rwset().writes[0].value, "2");
}

TEST(TxContextTest, DeleteOverridesEarlierWrite) {
  VersionedStore store = SeededStore();
  TxContext ctx(&store, "cc");
  ctx.PutState("x", "1");
  ctx.DeleteState("x");
  ASSERT_EQ(ctx.rwset().writes.size(), 1u);
  EXPECT_TRUE(ctx.rwset().writes[0].is_delete);
}

TEST(TxContextTest, WriteAfterDeleteClearsDeleteFlag) {
  VersionedStore store = SeededStore();
  TxContext ctx(&store, "cc");
  ctx.DeleteState("x");
  ctx.PutState("x", "1");
  ASSERT_EQ(ctx.rwset().writes.size(), 1u);
  EXPECT_FALSE(ctx.rwset().writes[0].is_delete);
  EXPECT_EQ(ctx.rwset().writes[0].value, "1");
}

/// Collects what a range read hands to its visitor.
using RangeEntries = std::vector<std::pair<std::string, std::string>>;
TxContext::RangeVisitor CollectInto(RangeEntries& out) {
  return [&out](std::string_view key, std::string_view value) {
    out.emplace_back(std::string(key), std::string(value));
  };
}

TEST(TxContextTest, RangeQueryRecordsBoundsAndResults) {
  VersionedStore store = SeededStore();
  TxContext ctx(&store, "cc");
  RangeEntries results;
  ctx.GetStateByRange("a", "c", CollectInto(results));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].first, "a");  // namespace stripped for the contract
  EXPECT_EQ(results[0].second, "va");
  ASSERT_EQ(ctx.rwset().range_queries.size(), 1u);
  const auto& rq = ctx.rwset().range_queries[0];
  EXPECT_EQ(rq.start_key, "cc~a");
  EXPECT_EQ(rq.end_key, "cc~c");
  ASSERT_EQ(rq.results.size(), 2u);
  EXPECT_EQ(rq.results[1].key(), "cc~b");
}

TEST(TxContextTest, OpenEndedRangeStaysInNamespace) {
  VersionedStore store = SeededStore();
  TxContext ctx(&store, "cc");
  RangeEntries results;
  ctx.GetStateByRange("a", "", CollectInto(results));
  // Must see cc~a, cc~b, cc~c but never other~a.
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[2].first, "c");
}

TEST(TxContextTest, RangeVisitorSeesExactlyTheRecordedResultsInOrder) {
  VersionedStore store = SeededStore();
  store.Apply("cc~b2", "vb2", false, Version{3, 0});
  store.Apply("cc~", "empty-key", false, Version{3, 1});
  store.Apply("cc~a", "va-new", false, Version{4, 0});
  struct Case {
    std::string start, end;
    std::vector<std::string> keys;  // what the visitor must see, in order
  };
  for (const Case& c : std::vector<Case>{{"", "", {"", "a", "b", "b2", "c"}},
                                         {"a", "c", {"a", "b", "b2"}},
                                         {"b", "b3", {"b", "b2"}},
                                         {"c", "a", {}},
                                         {"zz", "", {}}}) {
    TxContext ctx(&store, "cc");
    RangeEntries seen;
    ctx.GetStateByRange(c.start, c.end, CollectInto(seen));
    ASSERT_EQ(ctx.rwset().range_queries.size(), 1u);
    const auto& rq = ctx.rwset().range_queries[0];
    ASSERT_EQ(seen.size(), c.keys.size()) << c.start << ".." << c.end;
    ASSERT_EQ(rq.results.size(), c.keys.size());
    for (size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i].first, c.keys[i]);
      EXPECT_EQ("cc~" + seen[i].first, rq.results[i].key());
      EXPECT_EQ(seen[i].second, store.Get(rq.results[i].key())->value);
      EXPECT_EQ(rq.results[i].version,
                store.Get(rq.results[i].key())->version);
      EXPECT_EQ(rq.results[i].id, store.Get(rq.results[i].key())->id);
    }
  }
}

TEST(TxContextTest, NamespaceIsolation) {
  VersionedStore store = SeededStore();
  TxContext ctx(&store, "other");
  auto v = ctx.GetState("a");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "other");
}

// ---------------------------------------------------------------------------
// Cross-chaincode invocation
// ---------------------------------------------------------------------------

class WriterContract : public Chaincode {
 public:
  std::string name() const override { return "writer"; }
  Status Invoke(TxContext& ctx, const std::string& function,
                const std::vector<std::string>& args) override {
    (void)function;
    ctx.PutState(args[0], "from-writer");
    return Status::OK();
  }
};

class CallerContract : public Chaincode {
 public:
  std::string name() const override { return "caller"; }
  Status Invoke(TxContext& ctx, const std::string& function,
                const std::vector<std::string>& args) override {
    (void)function;
    ctx.PutState(args[0], "from-caller");
    WriterContract writer;
    return InvokeChaincode(writer, ctx, "write", args);
  }
};

TEST(CrossChaincodeTest, WritesLandInEachNamespace) {
  VersionedStore store;
  TxContext ctx(&store, "caller");
  CallerContract caller;
  ASSERT_TRUE(caller.Invoke(ctx, "go", {"k"}).ok());
  ASSERT_EQ(ctx.rwset().writes.size(), 2u);
  EXPECT_EQ(ctx.rwset().writes[0].key(), "caller~k");
  EXPECT_EQ(ctx.rwset().writes[1].key(), "writer~k");
  // Namespace stack restored.
  EXPECT_EQ(ctx.current_namespace(), "caller");
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(RegistryTest, GlobalHasAllBuiltins) {
  auto names = ChaincodeRegistry::Global().Names();
  for (const char* expected :
       {"genchain", "scm", "scm_pruned", "drm", "drm_delta", "drmplay",
        "drmmeta", "ehr", "ehr_pruned", "dv", "dv_voter", "lap", "lap_app"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(RegistryTest, CreateInstantiatesByName) {
  auto cc = ChaincodeRegistry::Global().Create("scm_pruned");
  ASSERT_TRUE(cc.ok());
  EXPECT_EQ((*cc)->name(), "scm_pruned");
}

TEST(RegistryTest, UnknownNameFails) {
  auto cc = ChaincodeRegistry::Global().Create("nope");
  EXPECT_FALSE(cc.ok());
  EXPECT_TRUE(cc.status().IsNotFound());
}

TEST(RegistryTest, RegisterOverridesAndLists) {
  ChaincodeRegistry registry;
  registry.Register("w", [] { return std::make_unique<WriterContract>(); });
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"w"}));
  auto cc = registry.Create("w");
  ASSERT_TRUE(cc.ok());
  EXPECT_EQ((*cc)->name(), "writer");
}

}  // namespace
}  // namespace blockoptr
