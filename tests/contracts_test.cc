#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chaincode/tx_context.h"
#include "common/interner.h"
#include "contracts/drm.h"
#include "contracts/dv.h"
#include "contracts/ehr.h"
#include "contracts/gen_chain.h"
#include "contracts/lap.h"
#include "contracts/scm.h"
#include "ledger/transaction.h"
#include "statedb/versioned_store.h"

namespace blockoptr {
namespace {

KeyId Id(std::string_view key) { return GlobalKeyInterner().Intern(key); }

bool HasWriteTo(const ReadWriteSet& rw, std::string_view key) {
  return std::any_of(rw.writes.begin(), rw.writes.end(),
                     [&](const WriteItem& w) { return w.key() == key; });
}

/// Runs one invocation against `store` and, on success, applies the
/// staged writes back so sequences of invocations behave like committed
/// transactions.
Status Exec(Chaincode& cc, VersionedStore& store, const std::string& fn,
            std::vector<std::string> args, ReadWriteSet* rwset_out = nullptr,
            uint64_t version = 1) {
  TxContext ctx(&store, cc.name());
  Status st = cc.Invoke(ctx, fn, args);
  if (rwset_out != nullptr) *rwset_out = ctx.rwset();
  if (st.ok()) {
    for (const auto& w : ctx.rwset().writes) {
      store.ApplyById(w.id, w.value, w.is_delete, Version{version, 0});
    }
  }
  return st;
}

// ---------------------------------------------------------------------------
// genChain
// ---------------------------------------------------------------------------

TEST(GenChainTest, ReadIsPureRead) {
  GenChainContract cc;
  VersionedStore store;
  store.Apply("genchain~k", "v", false, Version{1, 0});
  ReadWriteSet rw;
  ASSERT_TRUE(Exec(cc, store, "Read", {"k"}, &rw).ok());
  EXPECT_EQ(DeriveTxType(rw), TxType::kRead);
  EXPECT_TRUE(rw.writes.empty());
}

TEST(GenChainTest, WriteIsBlind) {
  GenChainContract cc;
  VersionedStore store;
  ReadWriteSet rw;
  ASSERT_TRUE(Exec(cc, store, "Write", {"k", "v"}, &rw).ok());
  EXPECT_EQ(DeriveTxType(rw), TxType::kWrite);
  EXPECT_TRUE(rw.reads.empty());
  EXPECT_EQ(store.Get("genchain~k")->value, "v");
}

TEST(GenChainTest, UpdateIsReadModifyWriteWithoutCounter) {
  GenChainContract cc;
  VersionedStore store;
  store.Apply("genchain~k", "orig", false, Version{1, 0});
  ReadWriteSet rw;
  ASSERT_TRUE(Exec(cc, store, "Update", {"k", "u5"}, &rw).ok());
  EXPECT_EQ(DeriveTxType(rw), TxType::kUpdate);
  // Not an integer counter — genChain must not trigger delta writes.
  EXPECT_EQ(store.Get("genchain~k")->value, "u5.orig");
}

TEST(GenChainTest, RangeReadRecordsQuery) {
  GenChainContract cc;
  VersionedStore store;
  store.Apply("genchain~k1", "a", false, Version{1, 0});
  ReadWriteSet rw;
  ASSERT_TRUE(Exec(cc, store, "RangeRead", {"k0", "k9"}, &rw).ok());
  EXPECT_EQ(DeriveTxType(rw), TxType::kRangeRead);
  ASSERT_EQ(rw.range_queries.size(), 1u);
  EXPECT_EQ(rw.range_queries[0].results.size(), 1u);
}

TEST(GenChainTest, DeleteReadsThenDeletes) {
  GenChainContract cc;
  VersionedStore store;
  store.Apply("genchain~k", "v", false, Version{1, 0});
  ReadWriteSet rw;
  ASSERT_TRUE(Exec(cc, store, "Delete", {"k"}, &rw).ok());
  EXPECT_EQ(DeriveTxType(rw), TxType::kDelete);
  EXPECT_FALSE(store.Contains("genchain~k"));
}

TEST(GenChainTest, RejectsUnknownFunctionAndMissingArgs) {
  GenChainContract cc;
  VersionedStore store;
  EXPECT_FALSE(Exec(cc, store, "Nope", {}).ok());
  EXPECT_FALSE(Exec(cc, store, "Write", {"only-key"}).ok());
}

// ---------------------------------------------------------------------------
// SCM — lifecycle + pruning (paper §3, Figure 2)
// ---------------------------------------------------------------------------

TEST(ScmTest, HappyPathLifecycle) {
  ScmContract cc;
  VersionedStore store;
  ASSERT_TRUE(Exec(cc, store, "PushASN", {"P1"}, nullptr, 1).ok());
  EXPECT_EQ(store.Get("scm~PRODUCT_P1")->value, "ASN");
  ASSERT_TRUE(Exec(cc, store, "Ship", {"P1"}, nullptr, 2).ok());
  EXPECT_EQ(store.Get("scm~PRODUCT_P1")->value, "SHIPPED");
  ASSERT_TRUE(Exec(cc, store, "Unload", {"P1"}, nullptr, 3).ok());
  EXPECT_EQ(store.Get("scm~PRODUCT_P1")->value, "UNLOADED");
}

TEST(ScmTest, BaseCommitsIllogicalShipAsReadOnly) {
  ScmContract cc;
  VersionedStore store;
  ReadWriteSet rw;
  // Ship before any PushASN: committed, but read-only (provenance).
  ASSERT_TRUE(Exec(cc, store, "Ship", {"P1"}, &rw).ok());
  EXPECT_TRUE(rw.writes.empty());
  EXPECT_EQ(DeriveTxType(rw), TxType::kRead);
}

TEST(ScmTest, PrunedVariantEarlyAbortsIllogicalPaths) {
  ScmContract cc(/*pruned=*/true);
  VersionedStore store;
  EXPECT_TRUE(Exec(cc, store, "Ship", {"P1"}).IsFailedPrecondition());
  EXPECT_TRUE(Exec(cc, store, "Unload", {"P1"}).IsFailedPrecondition());
  // The legal path still works.
  ASSERT_TRUE(Exec(cc, store, "PushASN", {"P1"}, nullptr, 1).ok());
  EXPECT_TRUE(Exec(cc, store, "Ship", {"P1"}, nullptr, 2).ok());
}

TEST(ScmTest, UpdateAuditInfoHasDisjointWriteSet) {
  // The reorderability property of Figure 3: UpdateAuditInfo reads the
  // product but writes only the audit key.
  ScmContract cc;
  VersionedStore store;
  ASSERT_TRUE(Exec(cc, store, "PushASN", {"P1"}, nullptr, 1).ok());
  ReadWriteSet audit_rw, ship_rw;
  ASSERT_TRUE(Exec(cc, store, "UpdateAuditInfo", {"P1", "e1"}, &audit_rw).ok());
  ASSERT_TRUE(Exec(cc, store, "Ship", {"P1"}, &ship_rw, 2).ok());
  EXPECT_TRUE(audit_rw.HasReadOf(Id("scm~PRODUCT_P1")));
  const auto& aw = audit_rw.WriteKeyIds();
  const auto& sw = ship_rw.WriteKeyIds();
  std::vector<KeyId> inter;
  std::set_intersection(aw.begin(), aw.end(), sw.begin(), sw.end(),
                        std::back_inserter(inter));
  EXPECT_TRUE(inter.empty());
}

TEST(ScmTest, QueryProductsIsRangeRead) {
  ScmContract cc;
  VersionedStore store;
  ASSERT_TRUE(Exec(cc, store, "PushASN", {"P1"}, nullptr, 1).ok());
  ReadWriteSet rw;
  ASSERT_TRUE(Exec(cc, store, "QueryProducts", {"P0", "P9"}, &rw).ok());
  EXPECT_EQ(DeriveTxType(rw), TxType::kRangeRead);
}

// ---------------------------------------------------------------------------
// DRM + variants (paper §6.2, Figure 14)
// ---------------------------------------------------------------------------

TEST(DrmTest, PlayIncrementsTheCounter) {
  DrmContract cc;
  VersionedStore store;
  store.Apply("drm~MUSIC_M1", "0|meta|artist", false, Version{1, 0});
  ASSERT_TRUE(Exec(cc, store, "Play", {"M1", "u1"}, nullptr, 2).ok());
  ASSERT_TRUE(Exec(cc, store, "Play", {"M1", "u2"}, nullptr, 3).ok());
  EXPECT_EQ(store.Get("drm~MUSIC_M1")->value, "2|meta|artist");
}

TEST(DrmTest, PlayOfUnknownMusicAborts) {
  DrmContract cc;
  VersionedStore store;
  EXPECT_TRUE(Exec(cc, store, "Play", {"M9", "u"}).IsNotFound());
}

TEST(DrmTest, CalcRevenueReadsCountWritesRevenue) {
  DrmContract cc;
  VersionedStore store;
  store.Apply("drm~MUSIC_M1", "300|m|a", false, Version{1, 0});
  ReadWriteSet rw;
  ASSERT_TRUE(Exec(cc, store, "CalcRevenue", {"M1"}, &rw, 2).ok());
  EXPECT_EQ(store.Get("drm~REV_M1")->value, "3.00");
  // Write set disjoint from Play's — the reorderable pair of §6.2.
  EXPECT_FALSE(HasWriteTo(rw, "drm~MUSIC_M1"));
}

TEST(DrmDeltaTest, PlayIsBlindWriteToUniqueKey) {
  DrmDeltaContract cc;
  VersionedStore store;
  ReadWriteSet rw;
  ASSERT_TRUE(Exec(cc, store, "Play", {"M1", "u7"}, &rw).ok());
  EXPECT_TRUE(rw.reads.empty());
  ASSERT_EQ(rw.writes.size(), 1u);
  EXPECT_EQ(rw.writes[0].key(), "drm_delta~DELTA_M1_u7");
  EXPECT_EQ(DeriveTxType(rw), TxType::kWrite);
}

TEST(DrmDeltaTest, CalcRevenueAggregatesDeltas) {
  DrmDeltaContract cc;
  VersionedStore store;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(Exec(cc, store, "Play", {"M1", "u" + std::to_string(i)},
                     nullptr, static_cast<uint64_t>(i + 1))
                    .ok());
  }
  ASSERT_TRUE(Exec(cc, store, "CalcRevenue", {"M1"}, nullptr, 9).ok());
  EXPECT_EQ(store.Get("drm_delta~REV_M1")->value, "0.05");
}

TEST(DrmDeltaTest, CalcRevenueOverSeededDeltasWritesCountTimesRate) {
  // Revenue is 0.01 per delta key of the music id. M10's keys share the
  // "DELTA_M1" prefix and must stay outside M1's range.
  for (const auto& [count, revenue] :
       std::vector<std::pair<int, std::string>>{
           {0, "0.00"}, {1, "0.01"}, {37, "0.37"}, {250, "2.50"}}) {
    DrmDeltaContract cc;
    VersionedStore store;
    for (int i = 0; i < count; ++i) {
      store.Apply("drm_delta~DELTA_M1_user" + std::to_string(i), "1", false,
                  Version{1, static_cast<uint32_t>(i)});
    }
    store.Apply("drm_delta~DELTA_M10_user0", "1", false, Version{2, 0});
    store.Apply("drm_delta~DELTA_M2_user0", "1", false, Version{2, 1});
    ReadWriteSet rw;
    ASSERT_TRUE(Exec(cc, store, "CalcRevenue", {"M1"}, &rw, 9).ok());
    EXPECT_EQ(store.Get("drm_delta~REV_M1")->value, revenue) << count;
    ASSERT_EQ(rw.range_queries.size(), 1u);
    EXPECT_EQ(rw.range_queries[0].results.size(),
              static_cast<size_t>(count));
  }
}

TEST(DrmSplitTest, CreatePopulatesBothPartitions) {
  DrmPlayContract play;
  VersionedStore store;
  ASSERT_TRUE(Exec(play, store, "Create", {"M1", "m", "a"}, nullptr, 1).ok());
  EXPECT_TRUE(store.Contains("drmplay~MUSIC_M1"));
  EXPECT_TRUE(store.Contains("drmmeta~MUSIC_M1"));
}

TEST(DrmSplitTest, PartitionsDoNotShareKeys) {
  DrmPlayContract play;
  DrmMetaContract meta;
  VersionedStore store;
  ASSERT_TRUE(Exec(play, store, "Create", {"M1", "m", "a"}, nullptr, 1).ok());
  ReadWriteSet play_rw, meta_rw;
  ASSERT_TRUE(Exec(play, store, "Play", {"M1"}, &play_rw, 2).ok());
  ASSERT_TRUE(Exec(meta, store, "ViewMetaData", {"M1"}, &meta_rw).ok());
  // The core partitioning property: Play's writes never touch the keys
  // ViewMetaData reads.
  for (const auto& w : play_rw.writes) {
    EXPECT_FALSE(meta_rw.HasReadOf(w.id));
  }
}

// ---------------------------------------------------------------------------
// EHR + pruning
// ---------------------------------------------------------------------------

TEST(EhrTest, GrantThenRevoke) {
  EhrContract cc;
  VersionedStore store;
  store.Apply("ehr~PATIENT_T1", "", false, Version{1, 0});
  ASSERT_TRUE(Exec(cc, store, "GrantAccess", {"T1", "I1"}, nullptr, 2).ok());
  EXPECT_EQ(store.Get("ehr~PATIENT_T1")->value, "I1");
  ASSERT_TRUE(Exec(cc, store, "GrantAccess", {"T1", "I2"}, nullptr, 3).ok());
  EXPECT_EQ(store.Get("ehr~PATIENT_T1")->value, "I1,I2");
  ASSERT_TRUE(Exec(cc, store, "RevokeAccess", {"T1", "I1"}, nullptr, 4).ok());
  EXPECT_EQ(store.Get("ehr~PATIENT_T1")->value, "I2");
}

TEST(EhrTest, BaseRevokeWithoutGrantIsReadOnly) {
  EhrContract cc;
  VersionedStore store;
  store.Apply("ehr~PATIENT_T1", "", false, Version{1, 0});
  ReadWriteSet rw;
  ASSERT_TRUE(Exec(cc, store, "RevokeAccess", {"T1", "I9"}, &rw).ok());
  EXPECT_TRUE(rw.writes.empty());
}

TEST(EhrTest, PrunedRevokeWithoutGrantAborts) {
  EhrContract cc(/*pruned=*/true);
  VersionedStore store;
  store.Apply("ehr_pruned~PATIENT_T1", "", false, Version{1, 0});
  EXPECT_TRUE(
      Exec(cc, store, "RevokeAccess", {"T1", "I9"}).IsFailedPrecondition());
}

TEST(EhrTest, QueryRecordIsPureRead) {
  EhrContract cc;
  VersionedStore store;
  ReadWriteSet rw;
  ASSERT_TRUE(Exec(cc, store, "QueryRecord", {"T1", "I1"}, &rw).ok());
  EXPECT_TRUE(rw.writes.empty());
  EXPECT_EQ(rw.reads.size(), 2u);  // ACL + record
}

// ---------------------------------------------------------------------------
// DV + data-model alteration (paper §6.2, Figure 16)
// ---------------------------------------------------------------------------

TEST(DvTest, VoteUpdatesPartyTally) {
  DvContract cc;
  VersionedStore store;
  store.Apply("dv~ELECTION_E1", "open", false, Version{1, 0});
  store.Apply("dv~PARTY_0", "0", false, Version{1, 1});
  ReadWriteSet rw;
  ASSERT_TRUE(Exec(cc, store, "Vote", {"E1", "0", "V1"}, &rw, 2).ok());
  EXPECT_EQ(store.Get("dv~PARTY_0")->value, "1");
  // The party tally is the shared key every vote contends on.
  EXPECT_TRUE(HasWriteTo(rw, "dv~PARTY_0"));
  EXPECT_TRUE(rw.HasReadOf(Id("dv~PARTY_0")));
}

TEST(DvTest, VoteOnClosedElectionAborts) {
  DvContract cc;
  VersionedStore store;
  store.Apply("dv~ELECTION_E1", "closed", false, Version{1, 0});
  EXPECT_TRUE(
      Exec(cc, store, "Vote", {"E1", "0", "V1"}).IsFailedPrecondition());
}

TEST(DvVoterTest, VoteWritesUniqueVoterKey) {
  DvVoterContract cc;
  VersionedStore store;
  store.Apply("dv_voter~ELECTION_E1", "open", false, Version{1, 0});
  ReadWriteSet a, b;
  ASSERT_TRUE(Exec(cc, store, "Vote", {"E1", "0", "V1"}, &a, 2).ok());
  ASSERT_TRUE(Exec(cc, store, "Vote", {"E1", "1", "V2"}, &b, 3).ok());
  // Different voters write different keys: no shared write target.
  ASSERT_EQ(a.writes.size(), 1u);
  ASSERT_EQ(b.writes.size(), 1u);
  EXPECT_NE(a.writes[0].id, b.writes[0].id);
}

TEST(DvTest, EndElectionClosesIt) {
  DvContract cc;
  VersionedStore store;
  store.Apply("dv~ELECTION_E1", "open", false, Version{1, 0});
  ASSERT_TRUE(Exec(cc, store, "EndElection", {"E1"}, nullptr, 2).ok());
  EXPECT_EQ(store.Get("dv~ELECTION_E1")->value, "closed");
}

// ---------------------------------------------------------------------------
// LAP + re-keying (paper §6.3, Figure 17)
// ---------------------------------------------------------------------------

TEST(LapTest, BaseKeysByEmployee) {
  LapContract cc;
  VersionedStore store;
  ReadWriteSet rw;
  ASSERT_TRUE(
      Exec(cc, store, "A_Create", {"E1", "APP1", "home", "100000"}, &rw, 1)
          .ok());
  ASSERT_EQ(rw.writes.size(), 1u);
  EXPECT_EQ(rw.writes[0].key(), "lap~EMP_E1");
  // Two different applications handled by the same employee contend.
  ReadWriteSet rw2;
  ASSERT_TRUE(
      Exec(cc, store, "A_Create", {"E1", "APP2", "car", "20000"}, &rw2, 2)
          .ok());
  EXPECT_EQ(rw2.writes[0].key(), "lap~EMP_E1");
}

TEST(LapAppKeyTest, AlteredModelKeysByApplication) {
  LapAppKeyContract cc;
  VersionedStore store;
  ReadWriteSet rw1, rw2;
  ASSERT_TRUE(
      Exec(cc, store, "A_Create", {"E1", "APP1", "home", "100000"}, &rw1, 1)
          .ok());
  ASSERT_TRUE(
      Exec(cc, store, "A_Create", {"E1", "APP2", "car", "20000"}, &rw2, 2)
          .ok());
  EXPECT_EQ(rw1.writes[0].key(), "lap_app~APP_APP1");
  EXPECT_EQ(rw2.writes[0].key(), "lap_app~APP_APP2");
}

TEST(LapTest, HistoryIsBounded) {
  LapContract cc;
  VersionedStore store;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(Exec(cc, store, "W_ValidateApplication",
                     {"E1", "APP" + std::to_string(i), "home", "1"},
                     nullptr, static_cast<uint64_t>(i + 1))
                    .ok());
  }
  EXPECT_LE(store.Get("lap~EMP_E1")->value.size(), 512u);
}

TEST(LapTest, RequiresEmployeeAndApplication) {
  LapContract cc;
  VersionedStore store;
  EXPECT_FALSE(Exec(cc, store, "A_Create", {"E1"}).ok());
}

}  // namespace
}  // namespace blockoptr
