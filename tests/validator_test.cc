#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/interner.h"
#include "fabric/validator.h"

namespace blockoptr {
namespace {

KeyId Id(std::string_view key) { return GlobalKeyInterner().Intern(key); }

ReadItem Read(std::string_view key, std::optional<Version> version) {
  return ReadItem{Id(key), version};
}

WriteItem Write(std::string_view key, std::string value,
                bool is_delete = false) {
  return WriteItem{Id(key), std::move(value), is_delete};
}

// A range result for `key`, as endorsement records it.
RangeResult RangeHit(std::string_view key, Version version) {
  return RangeResult{GlobalKeyInterner().Intern(key), version};
}

EndorsementPolicy TwoOfTwo() {
  return EndorsementPolicy::Preset(3, 2);  // Majority(Org1,Org2)
}

Transaction MakeTx(std::vector<ReadItem> reads, std::vector<WriteItem> writes,
                   std::vector<std::string> endorsers = {"Org1", "Org2"}) {
  Transaction tx;
  tx.chaincode = "cc";
  tx.activity = "fn";
  tx.endorsers = std::move(endorsers);
  tx.rwset.reads = std::move(reads);
  tx.rwset.writes = std::move(writes);
  return tx;
}

TEST(ValidatorTest, ValidTransactionAppliesWrites) {
  VersionedStore state;
  state.Apply("k", "v0", false, Version{1, 0});
  Block block;
  block.block_num = 5;
  block.transactions.push_back(
      MakeTx({Read("k", Version{1, 0})}, {Write("k", "v1")}));
  auto stats = ValidateAndApplyBlock(block, state, TwoOfTwo());
  EXPECT_EQ(stats.valid, 1u);
  EXPECT_EQ(block.transactions[0].status, TxStatus::kValid);
  auto vv = state.Get("k");
  EXPECT_EQ(vv->value, "v1");
  EXPECT_EQ(vv->version, (Version{5, 0}));
}

TEST(ValidatorTest, StaleReadIsMvccConflict) {
  VersionedStore state;
  state.Apply("k", "v1", false, Version{2, 0});  // moved past the read
  Block block;
  block.transactions.push_back(
      MakeTx({Read("k", Version{1, 0})}, {Write("k", "v2")}));
  auto stats = ValidateAndApplyBlock(block, state, TwoOfTwo());
  EXPECT_EQ(stats.mvcc_conflicts, 1u);
  EXPECT_EQ(block.transactions[0].status, TxStatus::kMvccReadConflict);
  // Failed writes must not touch state.
  EXPECT_EQ(state.Get("k")->value, "v1");
}

TEST(ValidatorTest, ReadOfDeletedKeyConflicts) {
  VersionedStore state;  // key absent
  Block block;
  block.transactions.push_back(MakeTx({Read("k", Version{1, 0})}, {}));
  auto stats = ValidateAndApplyBlock(block, state, TwoOfTwo());
  EXPECT_EQ(stats.mvcc_conflicts, 1u);
}

TEST(ValidatorTest, ReadOfAbsentKeyMatchesAbsentVersion) {
  VersionedStore state;
  Block block;
  block.transactions.push_back(
      MakeTx({Read("k", std::nullopt)}, {Write("k", "v")}));
  auto stats = ValidateAndApplyBlock(block, state, TwoOfTwo());
  EXPECT_EQ(stats.valid, 1u);
}

TEST(ValidatorTest, ReadOfNowExistingKeyConflictsWhenEndorsedAbsent) {
  VersionedStore state;
  state.Apply("k", "v", false, Version{3, 1});
  Block block;
  block.transactions.push_back(MakeTx({Read("k", std::nullopt)}, {}));
  auto stats = ValidateAndApplyBlock(block, state, TwoOfTwo());
  EXPECT_EQ(stats.mvcc_conflicts, 1u);
}

TEST(ValidatorTest, IntraBlockConflictSerialValidation) {
  // Fabric validates serially within a block: the second transaction read
  // the same version as the first, so after the first commits the second
  // is stale — the Figure 3 scenario.
  VersionedStore state;
  state.Apply("ProductID", "1", false, Version{1, 0});
  Block block;
  block.block_num = 2;
  block.transactions.push_back(MakeTx({Read("ProductID", Version{1, 0})},
                                      {Write("ProductID", "2")}));
  block.transactions.push_back(MakeTx({Read("ProductID", Version{1, 0})},
                                      {Write("AuditID", "002")}));
  auto stats = ValidateAndApplyBlock(block, state, TwoOfTwo());
  EXPECT_EQ(stats.valid, 1u);
  EXPECT_EQ(stats.mvcc_conflicts, 1u);
  EXPECT_EQ(block.transactions[0].status, TxStatus::kValid);
  EXPECT_EQ(block.transactions[1].status, TxStatus::kMvccReadConflict);
}

TEST(ValidatorTest, Figure3ReorderingFixesTheConflict) {
  // With activity reordering (UpdateAuditInfo before PushASN), both
  // transactions succeed — the paper's Figure 3 "with activity
  // reordering" table.
  VersionedStore state;
  state.Apply("ProductID", "1", false, Version{1, 0});
  state.Apply("AuditID", "001", false, Version{1, 1});
  Block block;
  block.block_num = 2;
  block.transactions.push_back(MakeTx({Read("ProductID", Version{1, 0}),
                                       Read("AuditID", Version{1, 1})},
                                      {Write("AuditID", "002")}));
  block.transactions.push_back(MakeTx({Read("ProductID", Version{1, 0})},
                                      {Write("ProductID", "2")}));
  auto stats = ValidateAndApplyBlock(block, state, TwoOfTwo());
  EXPECT_EQ(stats.valid, 2u);
  EXPECT_EQ(stats.mvcc_conflicts, 0u);
}

TEST(ValidatorTest, PhantomDetectedWhenRangeResultChanges) {
  VersionedStore state;
  state.Apply("a", "1", false, Version{1, 0});
  state.Apply("b", "2", false, Version{1, 1});  // inserted after endorsement
  Transaction tx = MakeTx({}, {});
  RangeQueryInfo rq;
  rq.start_key = "a";
  rq.end_key = "z";
  rq.results.push_back(RangeHit("a", Version{1, 0}));  // endorser saw only a
  tx.rwset.range_queries.push_back(rq);
  Block block;
  block.transactions.push_back(tx);
  auto stats = ValidateAndApplyBlock(block, state, TwoOfTwo());
  EXPECT_EQ(stats.phantom_conflicts, 1u);
  EXPECT_EQ(block.transactions[0].status, TxStatus::kPhantomReadConflict);
}

TEST(ValidatorTest, PhantomDetectedWhenRangeVersionChanges) {
  VersionedStore state;
  state.Apply("a", "2", false, Version{2, 0});  // updated since endorsement
  Transaction tx = MakeTx({}, {});
  RangeQueryInfo rq;
  rq.start_key = "a";
  rq.end_key = "z";
  rq.results.push_back(RangeHit("a", Version{1, 0}));
  tx.rwset.range_queries.push_back(rq);
  Block block;
  block.transactions.push_back(tx);
  auto stats = ValidateAndApplyBlock(block, state, TwoOfTwo());
  EXPECT_EQ(stats.phantom_conflicts, 1u);
}

TEST(ValidatorTest, StableRangePasses) {
  VersionedStore state;
  state.Apply("a", "1", false, Version{1, 0});
  Transaction tx = MakeTx({}, {});
  RangeQueryInfo rq;
  rq.start_key = "a";
  rq.end_key = "z";
  rq.results.push_back(RangeHit("a", Version{1, 0}));
  tx.rwset.range_queries.push_back(rq);
  Block block;
  block.transactions.push_back(tx);
  auto stats = ValidateAndApplyBlock(block, state, TwoOfTwo());
  EXPECT_EQ(stats.valid, 1u);
}

TEST(ValidatorTest, InsufficientEndorsementsFailPolicy) {
  VersionedStore state;
  Block block;
  block.transactions.push_back(
      MakeTx({}, {Write("k", "v")}, {"Org1"}));
  auto stats = ValidateAndApplyBlock(block, state, TwoOfTwo());
  EXPECT_EQ(stats.endorsement_failures, 1u);
  EXPECT_EQ(block.transactions[0].status,
            TxStatus::kEndorsementPolicyFailure);
  EXPECT_FALSE(state.Contains("k"));
}

TEST(ValidatorTest, EndorsementCheckedBeforeMvcc) {
  VersionedStore state;
  state.Apply("k", "v", false, Version{9, 9});
  Block block;
  // Both under-endorsed AND stale: the status must be the policy failure.
  block.transactions.push_back(
      MakeTx({Read("k", Version{1, 0})}, {}, {"Org1"}));
  ValidateAndApplyBlock(block, state, TwoOfTwo());
  EXPECT_EQ(block.transactions[0].status,
            TxStatus::kEndorsementPolicyFailure);
}

TEST(ValidatorTest, PreAbortedTransactionsKeepStampedStatus) {
  VersionedStore state;
  state.Apply("k", "v", false, Version{1, 0});
  Block block;
  Transaction tx =
      MakeTx({Read("k", Version{1, 0})}, {Write("k", "x")});
  tx.pre_aborted = true;
  tx.status = TxStatus::kMvccReadConflict;
  block.transactions.push_back(tx);
  auto stats = ValidateAndApplyBlock(block, state, TwoOfTwo());
  EXPECT_EQ(stats.mvcc_conflicts, 1u);
  EXPECT_EQ(stats.valid, 0u);
  EXPECT_EQ(state.Get("k")->value, "v");  // never applied
}

TEST(ValidatorTest, ConfigTransactionsAreSkipped) {
  VersionedStore state;
  Block block;
  Transaction tx = MakeTx({}, {Write("k", "v")});
  tx.is_config = true;
  block.transactions.push_back(tx);
  auto stats = ValidateAndApplyBlock(block, state, TwoOfTwo());
  EXPECT_EQ(stats.total(), 0u);
  EXPECT_EQ(block.transactions[0].status, TxStatus::kConfig);
}

TEST(ValidatorTest, DeleteWriteRemovesKey) {
  VersionedStore state;
  state.Apply("k", "v", false, Version{1, 0});
  Block block;
  block.transactions.push_back(
      MakeTx({Read("k", Version{1, 0})}, {Write("k", "", /*is_delete=*/true)}));
  ValidateAndApplyBlock(block, state, TwoOfTwo());
  EXPECT_FALSE(state.Contains("k"));
}

TEST(ValidatorTest, VersionsEncodeBlockAndPosition) {
  VersionedStore state;
  Block block;
  block.block_num = 7;
  block.transactions.push_back(MakeTx({}, {Write("a", "1")}));
  block.transactions.push_back(MakeTx({}, {Write("b", "2")}));
  ValidateAndApplyBlock(block, state, TwoOfTwo());
  EXPECT_EQ(state.Get("a")->version, (Version{7, 0}));
  EXPECT_EQ(state.Get("b")->version, (Version{7, 1}));
}

TEST(ValidatorTest, ReadsAreCurrentHelperMatchesValidator) {
  VersionedStore state;
  state.Apply("k", "v", false, Version{1, 0});
  ReadWriteSet fresh;
  fresh.reads.push_back(Read("k", Version{1, 0}));
  EXPECT_TRUE(ReadsAreCurrent(fresh, state));
  ReadWriteSet stale;
  stale.reads.push_back(Read("k", Version{0, 0}));
  EXPECT_FALSE(ReadsAreCurrent(stale, state));
}

}  // namespace
}  // namespace blockoptr
