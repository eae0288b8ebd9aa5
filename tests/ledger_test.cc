#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/rng.h"
#include "ledger/block.h"
#include "ledger/ledger.h"
#include "ledger/rwset.h"
#include "ledger/transaction.h"

namespace blockoptr {
namespace {

// A range result for `key`, as endorsement records it.
RangeResult RangeHit(std::string_view key, Version version) {
  return RangeResult{GlobalKeyInterner().Intern(key), version};
}

KeyId Id(std::string_view key) { return GlobalKeyInterner().Intern(key); }

ReadWriteSet MakeRwset(std::vector<std::string> reads,
                       std::vector<std::string> writes) {
  ReadWriteSet rw;
  for (auto& r : reads) rw.reads.push_back(ReadItem{Id(r), Version{1, 0}});
  for (auto& w : writes) rw.writes.push_back(WriteItem{Id(w), "v", false});
  return rw;
}

// Reference key sets read off the items' strings, sorted and deduped:
// RS(x) (point reads and range results), WS(x) and RWS(x).
std::vector<std::string> SortDedup(std::vector<std::string> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

std::vector<std::string> ReadKeys(const ReadWriteSet& rw) {
  std::vector<std::string> keys;
  for (const auto& r : rw.reads) keys.emplace_back(r.key());
  for (const auto& rq : rw.range_queries) {
    for (const auto& r : rq.results) keys.emplace_back(r.key());
  }
  return SortDedup(std::move(keys));
}

std::vector<std::string> WriteKeys(const ReadWriteSet& rw) {
  std::vector<std::string> keys;
  for (const auto& w : rw.writes) keys.emplace_back(w.key());
  return SortDedup(std::move(keys));
}

std::vector<std::string> AccessedKeys(const ReadWriteSet& rw) {
  std::vector<std::string> keys = ReadKeys(rw);
  for (const auto& w : rw.writes) keys.emplace_back(w.key());
  return SortDedup(std::move(keys));
}

std::vector<std::string> IdsToKeys(const std::vector<KeyId>& ids) {
  const Interner& interner = GlobalKeyInterner();
  std::vector<std::string> keys;
  keys.reserve(ids.size());
  for (KeyId id : ids) keys.emplace_back(interner.KeyForId(id));
  std::sort(keys.begin(), keys.end());
  return keys;
}

// ---------------------------------------------------------------------------
// ReadWriteSet helpers
// ---------------------------------------------------------------------------

TEST(RwsetTest, AccessedKeysDedupsAndSorts) {
  ReadWriteSet rw = MakeRwset({"b", "a"}, {"a", "c"});
  EXPECT_EQ(rw.AccessedKeyIds().size(), 3u);
  EXPECT_EQ(IdsToKeys(rw.AccessedKeyIds()),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(IdsToKeys(rw.ReadKeyIds()), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(IdsToKeys(rw.WriteKeyIds()),
            (std::vector<std::string>{"a", "c"}));
  EXPECT_TRUE(std::is_sorted(rw.AccessedKeyIds().begin(),
                             rw.AccessedKeyIds().end()));
}

TEST(RwsetTest, RangeResultsCountAsReads) {
  ReadWriteSet rw;
  RangeQueryInfo rq;
  rq.start_key = "a";
  rq.end_key = "z";
  rq.results.push_back(RangeHit("k1", Version{1, 0}));
  rq.results.push_back(RangeHit("k2", Version{1, 1}));
  rw.range_queries.push_back(rq);
  EXPECT_EQ(IdsToKeys(rw.ReadKeyIds()), (std::vector<std::string>{"k1", "k2"}));
  EXPECT_TRUE(rw.HasReadOf(Id("k1")));
  EXPECT_FALSE(rw.HasReadOf(Id("a")));
}

TEST(RwsetTest, HasReadOfMatchesPointReadsById) {
  ReadWriteSet rw = MakeRwset({"r"}, {"x"});
  EXPECT_TRUE(rw.HasReadOf(Id("r")));
  EXPECT_FALSE(rw.HasReadOf(Id("x")));  // written, not read
  EXPECT_FALSE(rw.HasReadOf(kInvalidKeyId));
}

TEST(RwsetTest, ItemsResolveTheirKeysAndCompareById) {
  const ReadItem r{Id("items~k"), Version{2, 1}};
  EXPECT_EQ(r.key(), "items~k");
  EXPECT_EQ(r, (ReadItem{Id("items~k"), Version{2, 1}}));
  EXPECT_NE(r, (ReadItem{Id("items~k"), std::nullopt}));
  EXPECT_NE(r, (ReadItem{Id("items~other"), Version{2, 1}}));
  const WriteItem w{Id("items~k"), "v", false};
  EXPECT_EQ(w.key(), "items~k");
  EXPECT_EQ(w, (WriteItem{Id("items~k"), "v", false}));
  EXPECT_NE(w, (WriteItem{Id("items~k"), "v", true}));
  EXPECT_NE(w, (WriteItem{Id("items~k"), "u", false}));
}

// ---------------------------------------------------------------------------
// Transaction type derivation (paper §4.1 attribute 8)
// ---------------------------------------------------------------------------

TEST(TxTypeTest, ReadOnly) {
  EXPECT_EQ(DeriveTxType(MakeRwset({"k"}, {})), TxType::kRead);
}

TEST(TxTypeTest, BlindWriteIsWrite) {
  EXPECT_EQ(DeriveTxType(MakeRwset({}, {"k"})), TxType::kWrite);
}

TEST(TxTypeTest, WriteToUnreadKeyIsWrite) {
  EXPECT_EQ(DeriveTxType(MakeRwset({"other"}, {"k"})), TxType::kWrite);
}

TEST(TxTypeTest, ReadModifyWriteIsUpdate) {
  EXPECT_EQ(DeriveTxType(MakeRwset({"k"}, {"k"})), TxType::kUpdate);
}

TEST(TxTypeTest, RangeQueryDominatesReads) {
  ReadWriteSet rw;
  rw.range_queries.push_back(RangeQueryInfo{"a", "z", {}});
  EXPECT_EQ(DeriveTxType(rw), TxType::kRangeRead);
}

TEST(TxTypeTest, DeleteDominatesEverything) {
  ReadWriteSet rw = MakeRwset({"k"}, {"k"});
  rw.writes.push_back(WriteItem{Id("d"), "", true});
  rw.range_queries.push_back(RangeQueryInfo{"a", "z", {}});
  EXPECT_EQ(DeriveTxType(rw), TxType::kDelete);
}

TEST(TxTypeTest, NamesAreStable) {
  EXPECT_EQ(TxTypeName(TxType::kRangeRead), "range_read");
  EXPECT_EQ(TxStatusName(TxStatus::kMvccReadConflict), "MVCC_READ_CONFLICT");
}

// ---------------------------------------------------------------------------
// Blocks and the chained ledger
// ---------------------------------------------------------------------------

Transaction MakeTx(uint64_t id, const std::string& activity) {
  Transaction tx;
  tx.tx_id = id;
  tx.chaincode = "cc";
  tx.activity = activity;
  tx.invoker = Invoker{"Org1-client0", "Org1"};
  tx.rwset = MakeRwset({"k" + std::to_string(id)}, {"k" + std::to_string(id)});
  return tx;
}

TEST(BlockTest, HashIsContentSensitive) {
  Block b;
  b.transactions.push_back(MakeTx(1, "A"));
  uint64_t h1 = b.ComputeHash();
  b.transactions[0].activity = "B";
  EXPECT_NE(b.ComputeHash(), h1);
}

TEST(BlockTest, HashDependsOnPrevLink) {
  Block b;
  b.transactions.push_back(MakeTx(1, "A"));
  uint64_t h1 = b.ComputeHash();
  b.prev_hash = 12345;
  EXPECT_NE(b.ComputeHash(), h1);
}

TEST(LedgerTest, AppendAssignsNumbersAndLinks) {
  Ledger ledger;
  Block b1;
  b1.transactions.push_back(MakeTx(1, "A"));
  Block b2;
  b2.transactions.push_back(MakeTx(2, "B"));
  EXPECT_EQ(ledger.Append(std::move(b1)), 0u);
  EXPECT_EQ(ledger.Append(std::move(b2)), 1u);
  EXPECT_EQ(ledger.NumBlocks(), 2u);
  EXPECT_EQ(ledger.NumTransactions(), 2u);
  EXPECT_EQ(ledger.GetBlock(1).prev_hash, ledger.GetBlock(0).hash);
  EXPECT_TRUE(ledger.VerifyChain().ok());
}

TEST(LedgerTest, VerifyChainDetectsTampering) {
  Ledger ledger;
  for (int i = 0; i < 3; ++i) {
    Block b;
    b.transactions.push_back(MakeTx(static_cast<uint64_t>(i), "A"));
    ledger.Append(std::move(b));
  }
  // Tamper with a committed transaction through a const_cast — the exact
  // attack hash chaining exists to detect.
  auto& block = const_cast<Block&>(ledger.GetBlock(1));
  block.transactions[0].activity = "evil";
  Status st = ledger.VerifyChain();
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInternal());
}

TEST(LedgerTest, ForEachTransactionVisitsCommitOrder) {
  Ledger ledger;
  for (int b = 0; b < 2; ++b) {
    Block block;
    for (int t = 0; t < 3; ++t) {
      block.transactions.push_back(
          MakeTx(static_cast<uint64_t>(b * 3 + t), "A"));
    }
    ledger.Append(std::move(block));
  }
  std::vector<uint64_t> ids;
  ledger.ForEachTransaction(
      [&](const Block&, const Transaction& tx) { ids.push_back(tx.tx_id); });
  EXPECT_EQ(ids, (std::vector<uint64_t>{0, 1, 2, 3, 4, 5}));
}

TEST(LedgerTest, AverageBlockSize) {
  Ledger ledger;
  for (int n : {2, 4}) {
    Block block;
    for (int t = 0; t < n; ++t) {
      block.transactions.push_back(MakeTx(static_cast<uint64_t>(t), "A"));
    }
    ledger.Append(std::move(block));
  }
  EXPECT_DOUBLE_EQ(ledger.AverageBlockSize(), 3.0);
}

TEST(LedgerTest, EmptyLedger) {
  Ledger ledger;
  EXPECT_EQ(ledger.NumBlocks(), 0u);
  EXPECT_DOUBLE_EQ(ledger.AverageBlockSize(), 0.0);
  EXPECT_TRUE(ledger.VerifyChain().ok());
}

// ---------------------------------------------------------------------------
// Interned-ID views
// ---------------------------------------------------------------------------

TEST(RwsetIdViewTest, ViewsMirrorStringAccessors) {
  ReadWriteSet rw = MakeRwset({"idv~b", "idv~a"}, {"idv~a", "idv~c"});
  EXPECT_EQ(IdsToKeys(rw.ReadKeyIds()), ReadKeys(rw));
  EXPECT_EQ(IdsToKeys(rw.WriteKeyIds()), WriteKeys(rw));
  EXPECT_EQ(IdsToKeys(rw.AccessedKeyIds()), AccessedKeys(rw));
}

TEST(RwsetIdViewTest, CacheInvalidatesOnAppend) {
  ReadWriteSet rw = MakeRwset({"idv~r1"}, {"idv~w1"});
  EXPECT_EQ(rw.ReadKeyIds().size(), 1u);  // build the cache
  rw.reads.push_back(ReadItem{Id("idv~r2"), Version{1, 0}});
  rw.writes.push_back(WriteItem{Id("idv~w2"), "v", false});
  RangeQueryInfo rq;
  rq.results.push_back(RangeHit("idv~r3", Version{1, 1}));
  rw.range_queries.push_back(rq);
  EXPECT_EQ(IdsToKeys(rw.ReadKeyIds()),
            (std::vector<std::string>{"idv~r1", "idv~r2", "idv~r3"}));
  EXPECT_EQ(IdsToKeys(rw.WriteKeyIds()),
            (std::vector<std::string>{"idv~w1", "idv~w2"}));
  EXPECT_EQ(IdsToKeys(rw.AccessedKeyIds()), AccessedKeys(rw));
  // Appending a result to an *existing* range query must also invalidate.
  rw.range_queries.back().results.push_back(
      RangeHit("idv~r4", Version{1, 2}));
  EXPECT_EQ(IdsToKeys(rw.ReadKeyIds()), ReadKeys(rw));
}

TEST(RwsetIdViewTest, CopyCarriesIndependentCache) {
  ReadWriteSet rw = MakeRwset({"idv~p"}, {"idv~q"});
  EXPECT_EQ(rw.AccessedKeyIds().size(), 2u);
  ReadWriteSet copy = rw;
  copy.writes.push_back(WriteItem{Id("idv~s"), "v", false});
  EXPECT_EQ(IdsToKeys(copy.WriteKeyIds()),
            (std::vector<std::string>{"idv~q", "idv~s"}));
  EXPECT_EQ(IdsToKeys(rw.WriteKeyIds()), (std::vector<std::string>{"idv~q"}));
  // operator== compares the recorded data, never the derived cache: a
  // fresh copy (empty cache) still equals the original (warm cache).
  ReadWriteSet same = rw;
  EXPECT_TRUE(same == rw);
  EXPECT_FALSE(copy == rw);
}

// Property: on random RW-sets, the interned-ID views map back to exactly
// the key sets the items' key strings denote, across reads, writes,
// and range-query results, including after incremental mutation.
TEST(RwsetIdViewProperty, ViewsMirrorStringViewsOnRandomSets) {
  Rng rng(4096);
  for (int round = 0; round < 50; ++round) {
    ReadWriteSet rw;
    const uint64_t key_space = 30;
    auto random_key = [&] {
      return "idvprop~k" + std::to_string(rng.NextBelow(key_space));
    };
    const int mutations = static_cast<int>(rng.NextBelow(40)) + 1;
    for (int m = 0; m < mutations; ++m) {
      switch (rng.NextBelow(4)) {
        case 0:
          rw.reads.push_back(ReadItem{Id(random_key()), Version{1, 0}});
          break;
        case 1:
          rw.writes.push_back(
              WriteItem{Id(random_key()), "v", rng.NextBool(0.2)});
          break;
        case 2: {
          RangeQueryInfo rq;
          const uint64_t results = rng.NextBelow(4);
          for (uint64_t r = 0; r < results; ++r) {
            rq.results.push_back(RangeHit(random_key(), Version{1, 0}));
          }
          rw.range_queries.push_back(std::move(rq));
          break;
        }
        default:
          if (!rw.range_queries.empty()) {
            rw.range_queries.back().results.push_back(
                RangeHit(random_key(), Version{1, 1}));
          } else {
            rw.reads.push_back(ReadItem{Id(random_key()), Version{1, 0}});
          }
          break;
      }
      // Interleave cache builds with mutation so stale views would be
      // caught, not just the final state.
      if (rng.NextBool(0.3)) {
        ASSERT_EQ(IdsToKeys(rw.ReadKeyIds()), ReadKeys(rw));
      }
    }
    ASSERT_EQ(IdsToKeys(rw.ReadKeyIds()), ReadKeys(rw)) << "round " << round;
    ASSERT_EQ(IdsToKeys(rw.WriteKeyIds()), WriteKeys(rw))
        << "round " << round;
    ASSERT_EQ(IdsToKeys(rw.AccessedKeyIds()), AccessedKeys(rw))
        << "round " << round;
  }
}

TEST(LedgerTest, FailedTransactionsAreStillAppended) {
  // Fabric appends every transaction regardless of validity — the
  // property that makes the ledger a complete analysis log (paper §4).
  Ledger ledger;
  Block block;
  Transaction ok = MakeTx(1, "A");
  Transaction failed = MakeTx(2, "B");
  failed.status = TxStatus::kMvccReadConflict;
  block.transactions.push_back(ok);
  block.transactions.push_back(failed);
  ledger.Append(std::move(block));
  EXPECT_EQ(ledger.NumTransactions(), 2u);
  EXPECT_EQ(ledger.GetBlock(0).transactions[1].status,
            TxStatus::kMvccReadConflict);
}

}  // namespace
}  // namespace blockoptr
