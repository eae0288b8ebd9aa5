#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "blockopt/log/export.h"
#include "blockopt/log/preprocess.h"
#include "blockopt/metrics/metrics.h"
#include "common/interner.h"
#include "chaincode/tx_context.h"
#include "common/csv.h"
#include "common/json.h"
#include "common/rng.h"
#include "driver/experiment.h"
#include "driver/faults.h"
#include "fabric/endorsement_policy.h"
#include "fabric/validator.h"
#include "reorder/conflict_graph.h"
#include "sim/service_station.h"
#include "sim/simulator.h"
#include "workload/synthetic.h"
#include "workload/usecase.h"

namespace blockoptr {
namespace {

KeyId Id(std::string_view key) { return GlobalKeyInterner().Intern(key); }

// ---------------------------------------------------------------------------
// End-to-end invariants swept over workload type x orderer scheduler
// ---------------------------------------------------------------------------

using ExperimentParam = std::tuple<SyntheticWorkloadType, std::string>;

class ExperimentInvariants
    : public ::testing::TestWithParam<ExperimentParam> {};

TEST_P(ExperimentInvariants, HoldAcrossTheSweep) {
  auto [type, scheduler] = GetParam();
  SyntheticConfig wl;
  wl.type = type;
  wl.num_txs = 1200;
  ExperimentConfig cfg;
  cfg.network = NetworkConfig::Defaults();
  cfg.chaincodes = {"genchain"};
  for (auto& [k, v] : SyntheticSeedState(wl)) {
    cfg.seeds.push_back(SeedEntry{"genchain", k, v});
  }
  cfg.schedule = GenerateSynthetic(wl);
  cfg.orderer_scheduler = scheduler;

  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();

  // 1. Conservation: every scheduled request resolves exactly once.
  EXPECT_EQ(out->report.total_committed() + out->report.early_aborts(),
            1200u);
  // 2. Status counts add up.
  EXPECT_EQ(out->report.successful() + out->report.failed(),
            out->report.total_committed());
  // 3. The chain verifies end to end.
  EXPECT_TRUE(out->ledger.VerifyChain().ok());
  // 4. Commit timestamps never precede client timestamps, and block
  //    commit order is monotone.
  double prev_commit = 0;
  out->ledger.ForEachTransaction(
      [&](const Block& block, const Transaction& tx) {
        if (tx.is_config) return;
        EXPECT_GE(tx.commit_timestamp, tx.client_timestamp);
        EXPECT_GE(block.commit_timestamp, prev_commit);
        prev_commit = block.commit_timestamp;
      });
  // 5. The extracted log matches the ledger's non-config population.
  BlockchainLog log = ExtractBlockchainLog(out->ledger);
  EXPECT_EQ(log.size(), out->report.total_committed());
  // 6. Metrics are internally consistent.
  LogMetrics m = ComputeMetrics(log, {});
  EXPECT_EQ(m.total_txs, log.size());
  EXPECT_EQ(m.failed_txs,
            m.mvcc_failures + m.phantom_failures + m.endorsement_failures);
  EXPECT_LE(m.intra_block_conflicts + m.inter_block_conflicts,
            m.mvcc_failures + m.phantom_failures);
  EXPECT_GE(m.SuccessRate(), 0.0);
  EXPECT_LE(m.SuccessRate(), 1.0);
  // 7. Every valid transaction carries a policy-satisfying endorsement.
  for (const auto& e : log.entries()) {
    if (e.status != TxStatus::kValid) continue;
    std::set<std::string> signers(e.endorsers.begin(), e.endorsers.end());
    EXPECT_TRUE(
        cfg.network.endorsement_policy.IsSatisfiedBy(signers))
        << "tx " << e.tx_id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExperimentInvariants,
    ::testing::Combine(
        ::testing::Values(SyntheticWorkloadType::kUniform,
                          SyntheticWorkloadType::kReadHeavy,
                          SyntheticWorkloadType::kInsertHeavy,
                          SyntheticWorkloadType::kUpdateHeavy,
                          SyntheticWorkloadType::kRangeReadHeavy),
        ::testing::Values("", "fabricpp", "fabricsharp")));

// ---------------------------------------------------------------------------
// Serializability replay oracle
// ---------------------------------------------------------------------------

struct ReplayCounts {
  size_t valid = 0;
  size_t conflicts = 0;  // MVCC and phantom
};

// Keyed reference for ReadsAreCurrent: looks each point read up by its
// key string and re-runs each range through Range(), comparing (key,
// version) pairs, so it shares no code with the validator's id checks.
bool ReadsCurrentByKey(const ReadWriteSet& rw, const VersionedStore& state) {
  for (const ReadItem& r : rw.reads) {
    const std::optional<VersionedValue> now = state.Get(r.key());
    const std::optional<Version> version =
        now ? std::optional<Version>(now->version) : std::nullopt;
    if (version != r.version) return false;
  }
  for (const RangeQueryInfo& rq : rw.range_queries) {
    const auto now = state.Range(rq.start_key, rq.end_key);
    if (now.size() != rq.results.size()) return false;
    for (size_t i = 0; i < now.size(); ++i) {
      if (now[i].first != rq.results[i].key() ||
          now[i].second.version != rq.results[i].version) {
        return false;
      }
    }
  }
  return true;
}

// Replays a finished run's ledger through a fresh store seeded the way
// FabricNetwork::SeedState seeds (seed i at Version{0, i}). Every valid
// transaction must read current state at its position; its writes then
// apply at {block, pos}, so the valid transactions form a serial
// execution in ledger order. Under vanilla ordering (no reorderer
// pre-aborts) every MVCC or phantom conflict must also be stale at its
// position: validation rejected nothing a serial replay would accept.
// ReadsAreCurrent must agree with the keyed reference everywhere.
ReplayCounts ExpectSerializableReplay(const ExperimentConfig& cfg,
                                      const Ledger& ledger) {
  VersionedStore state;
  for (size_t i = 0; i < cfg.seeds.size(); ++i) {
    const SeedEntry& seed = cfg.seeds[i];
    state.Apply(seed.chaincode + "~" + seed.key, seed.value,
                /*is_delete=*/false, Version{0, static_cast<uint32_t>(i)});
  }
  const bool vanilla = cfg.orderer_scheduler.empty();
  ReplayCounts counts;
  std::vector<std::string> violations;
  for (const Block& block : ledger.blocks()) {
    uint32_t pos = 0;
    for (const Transaction& tx : block.transactions) {
      const Version at{block.block_num, pos++};
      const bool current = ReadsCurrentByKey(tx.rwset, state);
      const std::string where = "tx " + std::to_string(tx.tx_id) + " at " +
                                at.ToString() + " (" +
                                std::string(TxStatusName(tx.status)) + ")";
      if (ReadsAreCurrent(tx.rwset, state) != current) {
        violations.push_back(where + ": ReadsAreCurrent disagrees");
      }
      if (tx.status == TxStatus::kValid) {
        ++counts.valid;
        if (!current) violations.push_back(where + " read stale state");
        for (const WriteItem& w : tx.rwset.writes) {
          state.ApplyById(w.id, w.value, w.is_delete, at);
        }
      } else if (tx.status == TxStatus::kMvccReadConflict ||
                 tx.status == TxStatus::kPhantomReadConflict) {
        ++counts.conflicts;
        if (vanilla && current) {
          violations.push_back(where + " reads current state");
        }
      }
    }
  }
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations; first: " << violations.front();
  return counts;
}

enum class ReplayWorkload { kUniform, kKeySkew2, kRangeRead, kDrm };

ExperimentConfig ReplayExperiment(ReplayWorkload workload, uint64_t seed,
                                  int num_txs) {
  ExperimentConfig cfg;
  cfg.network = NetworkConfig::Defaults();
  if (workload == ReplayWorkload::kDrm) {
    cfg.chaincodes = {"drm"};
    for (auto& [k, v] : DrmSeedState()) {
      cfg.seeds.push_back(SeedEntry{"drm", k, v});
    }
    UseCaseConfig uc;
    uc.num_txs = num_txs;
    uc.seed = seed;
    cfg.schedule = GenerateDrmWorkload(uc);
    return cfg;
  }
  SyntheticConfig wl;
  wl.num_txs = num_txs;
  wl.seed = seed;
  if (workload == ReplayWorkload::kKeySkew2) wl.key_skew = 2;
  if (workload == ReplayWorkload::kRangeRead) {
    wl.type = SyntheticWorkloadType::kRangeReadHeavy;
  }
  cfg.chaincodes = {"genchain"};
  for (auto& [k, v] : SyntheticSeedState(wl)) {
    cfg.seeds.push_back(SeedEntry{"genchain", k, v});
  }
  cfg.schedule = GenerateSynthetic(wl);
  return cfg;
}

using ReplayParam = std::tuple<ReplayWorkload, std::string>;

class SerializableReplay : public ::testing::TestWithParam<ReplayParam> {};

TEST_P(SerializableReplay, ValidTransactionsFormASerialExecution) {
  auto [workload, scheduler] = GetParam();
  size_t conflicts = 0;
  for (uint64_t seed : {1, 2, 3}) {
    ExperimentConfig cfg = ReplayExperiment(workload, seed, 800);
    cfg.orderer_scheduler = scheduler;
    auto out = RunExperiment(cfg);
    ASSERT_TRUE(out.ok()) << out.status();
    const ReplayCounts counts = ExpectSerializableReplay(cfg, out->ledger);
    EXPECT_GT(counts.valid, 0u) << "seed " << seed;
    conflicts += counts.conflicts;
  }
  // Vanilla ordering of a contended workload must produce conflicts, or
  // the stale-read half of the oracle checked nothing.
  if (scheduler.empty() && workload != ReplayWorkload::kUniform) {
    EXPECT_GT(conflicts, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Oracle, SerializableReplay,
    ::testing::Combine(::testing::Values(ReplayWorkload::kUniform,
                                         ReplayWorkload::kKeySkew2,
                                         ReplayWorkload::kRangeRead,
                                         ReplayWorkload::kDrm),
                       ::testing::Values("", "fabricpp", "fabricsharp")));

TEST(SerializableReplayFault, HoldsAcrossALeaderCrash) {
  ExperimentConfig cfg = ReplayExperiment(ReplayWorkload::kKeySkew2, 1, 1500);
  auto faults = ParseFaultPlan("leader-crash@t=1,dur=2");
  ASSERT_TRUE(faults.ok()) << faults.status();
  cfg.faults = *faults;
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->report.total_committed() + out->report.early_aborts(), 1500u);
  const ReplayCounts counts = ExpectSerializableReplay(cfg, out->ledger);
  EXPECT_GT(counts.valid, 0u);
  EXPECT_GT(counts.conflicts, 0u);
}

// ---------------------------------------------------------------------------
// Serialization round-trips under randomized inputs
// ---------------------------------------------------------------------------

std::string RandomField(Rng& rng) {
  static const char kAlphabet[] =
      "abcXYZ019 ,\"\n\r\t|~=;'<>&\\{}";
  std::string s;
  size_t len = rng.NextBelow(20);
  for (size_t i = 0; i < len; ++i) {
    s += kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)];
  }
  return s;
}

TEST(SerializationProperty, CsvRoundTripsRandomRows) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::string> row;
    size_t fields = 1 + rng.NextBelow(6);
    for (size_t i = 0; i < fields; ++i) row.push_back(RandomField(rng));
    std::ostringstream out;
    CsvWriter writer(out);
    writer.WriteRow(row);
    auto parsed = CsvReader::ParseDocument(out.str());
    ASSERT_TRUE(parsed.ok()) << out.str();
    ASSERT_EQ(parsed->size(), 1u);
    EXPECT_EQ((*parsed)[0], row);
  }
}

/// A number that exercises every formatting branch: small integers,
/// integers beyond 1e15, fractions across magnitudes, and non-finite
/// values (which dump as null).
double RandomNumber(Rng& rng) {
  switch (rng.NextBelow(5)) {
    case 0:
      return static_cast<double>(rng.NextInRange(-100000, 100000));
    case 1:
      return static_cast<double>(rng.NextInRange(-(int64_t{1} << 60),
                                                 int64_t{1} << 60));
    case 2:
      return (rng.NextDouble() - 0.5) *
             std::pow(10.0, static_cast<double>(rng.NextInRange(-20, 20)));
    case 3:
      return rng.NextGaussian(0, 1e6);
    default:
      return rng.NextBool(0.5) ? std::numeric_limits<double>::infinity()
                               : std::nan("");
  }
}

/// Numbers of every kind, and objects whose keys are inserted in random
/// order with duplicates, so inserts land before, between and after the
/// keys already present.
JsonValue RandomJson(Rng& rng, int depth) {
  switch (depth <= 0 ? rng.NextBelow(3) : rng.NextBelow(5)) {
    case 0:
      return JsonValue(RandomField(rng));
    case 1:
      return JsonValue(RandomNumber(rng));
    case 2:
      return rng.NextBool(0.5) ? JsonValue(true) : JsonValue(nullptr);
    case 3: {
      JsonValue::Array arr;
      size_t n = rng.NextBelow(4);
      for (size_t i = 0; i < n; ++i) arr.push_back(RandomJson(rng, depth - 1));
      return JsonValue(std::move(arr));
    }
    default: {
      JsonValue::Object obj;
      size_t n = rng.NextBelow(6);
      for (size_t i = 0; i < n; ++i) {
        obj[RandomField(rng).substr(0, 2)] = RandomJson(rng, depth - 1);
      }
      return JsonValue(std::move(obj));
    }
  }
}

TEST(SerializationProperty, JsonRoundTripsRandomDocuments) {
  Rng rng(7777);
  for (int trial = 0; trial < 200; ++trial) {
    JsonValue doc = RandomJson(rng, 3);
    auto parsed = JsonValue::Parse(doc.Dump());
    ASSERT_TRUE(parsed.ok()) << doc.Dump();
    EXPECT_EQ(parsed->Dump(), doc.Dump());
    EXPECT_EQ(parsed->DumpPretty(), doc.DumpPretty());
    // Pretty form parses back to the same document too.
    auto pretty = JsonValue::Parse(doc.DumpPretty());
    ASSERT_TRUE(pretty.ok());
    EXPECT_EQ(pretty->Dump(), doc.Dump());
    EXPECT_EQ(pretty->DumpPretty(), doc.DumpPretty());
  }
}

// ---------------------------------------------------------------------------
// JSON object model and parser under randomized inputs
// ---------------------------------------------------------------------------

TEST(JsonProperty, ObjectAgreesWithAStdMapModel) {
  Rng rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    JsonValue::Object obj;
    std::map<std::string, double> model;
    std::string text = "{";  // the same inserts as a document
    const size_t inserts = rng.NextBelow(40);
    for (size_t i = 0; i < inserts; ++i) {
      std::string key = RandomField(rng).substr(0, 3);
      const double v = static_cast<double>(i);
      obj[key] = JsonValue(v);
      model[key] = v;
      if (i > 0) text += ',';
      text += JsonValue::QuoteString(key) + ":" + JsonValue(v).Dump();
    }
    text += '}';
    auto parsed = JsonValue::Parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;

    for (const JsonValue::Object* o : {&obj, &parsed->as_object()}) {
      ASSERT_EQ(o->size(), model.size());
      EXPECT_EQ(o->empty(), model.empty());
      auto it = o->begin();
      for (const auto& [key, v] : model) {
        ASSERT_NE(it, o->end());
        EXPECT_EQ(it->first, key);
        EXPECT_EQ(it->second.as_number(), v);
        ++it;
        auto found = o->find(key);
        ASSERT_NE(found, o->end());
        EXPECT_EQ(found->second.as_number(), v);
        EXPECT_EQ(o->count(key), 1u);
      }
      for (int probe = 0; probe < 5; ++probe) {
        const std::string key = RandomField(rng).substr(0, 3);
        EXPECT_EQ(o->count(key), model.count(key)) << key;
        EXPECT_EQ(o->find(key) == o->end(), model.count(key) == 0) << key;
      }
    }
    const JsonValue::Object copy = obj;
    EXPECT_EQ(JsonValue(copy).Dump(), JsonValue(obj).Dump());
  }
}

TEST(JsonProperty, DamagedDocumentsParseOrFailCleanly) {
  // Every prefix and random byte flips of valid documents either parse or
  // fail with InvalidArgument; under ASan/UBSan this also checks the
  // parser never reads out of bounds.
  Rng rng(1337);
  size_t parsed_ok = 0;
  size_t rejected = 0;
  auto check = [&](const std::string& text) {
    auto parsed = JsonValue::Parse(text);
    if (parsed.ok()) {
      ++parsed_ok;
      auto again = JsonValue::Parse(parsed->Dump());
      ASSERT_TRUE(again.ok()) << text;
      EXPECT_EQ(again->Dump(), parsed->Dump());
    } else {
      ++rejected;
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << text;
    }
  };
  static const char kNoise[] = "{}[]\",:\\u0123456789.eE+-tfn \n";
  for (int trial = 0; trial < 150; ++trial) {
    const std::string text = rng.NextBool(0.5)
                                 ? RandomJson(rng, 3).Dump()
                                 : RandomJson(rng, 3).DumpPretty();
    for (size_t cut = 0; cut < text.size(); ++cut) {
      check(text.substr(0, cut));
    }
    for (int flip = 0; flip < 20 && !text.empty(); ++flip) {
      std::string damaged = text;
      const size_t at = rng.NextBelow(damaged.size());
      damaged[at] = rng.NextBool(0.5)
                        ? kNoise[rng.NextBelow(sizeof(kNoise) - 1)]
                        : static_cast<char>(rng.NextBelow(256));
      check(damaged);
    }
  }
  EXPECT_GT(parsed_ok, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(SerializationProperty, LogCsvMatchesTheRowWriter) {
  // WriteLogCsv formats rows into its own buffer; it must write exactly
  // what CsvWriter::WriteRow writes for the same fields, with timestamps
  // as printf's %.6f.
  auto fixed6 = [](double v) {
    char buf[400];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return std::string(buf);
  };
  auto join = [](const std::vector<std::string>& parts) {
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
      out += (i > 0 ? "|" : "") + parts[i];
    }
    return out;
  };
  auto fields = [&](Rng& rng) {
    std::vector<std::string> out(rng.NextBelow(4));
    for (auto& f : out) f = RandomField(rng);
    return out;
  };
  Rng rng(606);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<BlockchainLogEntry> rows(rng.NextBelow(30));
    for (auto& e : rows) {
      e.commit_order = rng.Next();
      e.client_timestamp = RandomNumber(rng);
      e.activity = RandomField(rng);
      e.args = fields(rng);
      e.endorsers = fields(rng);
      e.invoker_client = RandomField(rng);
      e.invoker_org = RandomField(rng);
      e.read_keys = fields(rng);
      for (const auto& k : fields(rng)) {
        e.writes.emplace_back(k, RandomField(rng));
      }
      e.delete_keys = fields(rng);
      e.status = static_cast<TxStatus>(rng.NextBelow(5));
      e.tx_type = static_cast<TxType>(rng.NextBelow(5));
      e.chaincode = RandomField(rng);
      e.block_num = rng.Next();
      e.tx_pos = static_cast<uint32_t>(rng.Next());
      e.commit_timestamp = RandomNumber(rng);
    }
    const BlockchainLog log(rows);

    std::ostringstream want;
    CsvWriter writer(want);
    writer.WriteRow({"commit_order", "client_timestamp", "activity", "args",
                     "endorsers", "invoker_client", "invoker_org",
                     "read_keys", "writes", "delete_keys", "status",
                     "tx_type", "chaincode", "block_num", "tx_pos",
                     "commit_timestamp"});
    for (const auto& e : rows) {
      std::vector<std::string> writes;
      for (const auto& [k, v] : e.writes) writes.push_back(k + "=" + v);
      writer.WriteRow({std::to_string(e.commit_order),
                       fixed6(e.client_timestamp), e.activity, join(e.args),
                       join(e.endorsers), e.invoker_client, e.invoker_org,
                       join(e.read_keys), join(writes), join(e.delete_keys),
                       std::string(TxStatusName(e.status)),
                       std::string(TxTypeName(e.tx_type)), e.chaincode,
                       std::to_string(e.block_num), std::to_string(e.tx_pos),
                       fixed6(e.commit_timestamp)});
    }
    std::ostringstream got;
    WriteLogCsv(log, got);
    ASSERT_EQ(got.str(), want.str()) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Endorsement-policy properties
// ---------------------------------------------------------------------------

TEST(PolicyProperty, SatisfactionIsMonotone) {
  // Adding endorsers never invalidates a satisfying set.
  Rng rng(99);
  for (int preset = 1; preset <= 4; ++preset) {
    for (int orgs : {2, 4, 6}) {
      EndorsementPolicy policy = EndorsementPolicy::Preset(preset, orgs);
      for (const auto& minimal : policy.MinimalSatisfyingSets()) {
        std::set<std::string> grown = minimal;
        grown.insert("Org" + std::to_string(
                                 1 + rng.NextBelow(
                                         static_cast<uint64_t>(orgs))));
        EXPECT_TRUE(policy.IsSatisfiedBy(grown));
      }
    }
  }
}

TEST(PolicyProperty, MandatoryOrgsAppearInEveryMinimalSet) {
  for (int preset = 1; preset <= 4; ++preset) {
    EndorsementPolicy policy = EndorsementPolicy::Preset(preset, 4);
    auto mandatory = policy.MandatoryOrgs();
    for (const auto& set : policy.MinimalSatisfyingSets()) {
      for (const auto& org : mandatory) {
        EXPECT_TRUE(set.count(org)) << policy.ToString();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Phantom validation: id-based range checks against a keyed reference
// ---------------------------------------------------------------------------

// Property: a range query recorded at endorsement is current exactly when
// the store's Range() still lists the same (key, version) pairs as the
// recorded results' key()s. Swept over seeds and random inserts, updates
// and deletes in and out of the range, including deleting a key inside the
// range and re-inserting it. Versions come from a pool of three, so
// different keys often share a version: a check that compared versions
// alone, without key identity, would disagree with the reference.
TEST(PhantomProperty, RangeCheckAgreesWithKeyedReference) {
  const uint64_t key_space = 16;
  auto key = [](uint64_t k) { return "k" + std::to_string(10 + k); };
  uint64_t phantoms = 0;
  uint64_t current = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    auto version = [&rng] { return Version{rng.NextBelow(3), 0}; };
    auto stored = [&](uint64_t k) { return "ph~" + key(k); };
    VersionedStore store;
    for (uint64_t k = 0; k < key_space; ++k) {
      if (rng.NextBool(0.6)) store.Apply(stored(k), "v", false, version());
    }
    for (int round = 0; round < 40; ++round) {
      const uint64_t lo = rng.NextBelow(key_space);
      const uint64_t hi = lo + rng.NextBelow(key_space - lo + 1);
      TxContext ctx(&store, "ph");
      ctx.GetStateByRange(key(lo), hi == key_space ? "" : key(hi),
                          [](std::string_view, std::string_view) {});
      const ReadWriteSet rw = ctx.TakeRwset();
      ASSERT_EQ(rw.range_queries.size(), 1u);
      const RangeQueryInfo& rq = rw.range_queries[0];

      const uint64_t ops = rng.NextBelow(4);
      for (uint64_t op = 0; op < ops; ++op) {
        const std::string k = stored(rng.NextBelow(key_space));
        const Version v = version();
        switch (rng.NextBelow(4)) {
          case 0:  // insert or update
            store.Apply(k, "w", false, v);
            break;
          case 1:  // delete
            store.Apply(k, "", true, v);
            break;
          case 2:  // delete, then re-insert
            store.Apply(k, "", true, v);
            store.Apply(k, "r", false, version());
            break;
          default:  // delete, then insert another key at the same version
            store.Apply(k, "", true, v);
            store.Apply(stored(rng.NextBelow(key_space)), "m", false, v);
            break;
        }
      }

      const auto now = store.Range(rq.start_key, rq.end_key);
      bool same = now.size() == rq.results.size();
      for (size_t i = 0; same && i < now.size(); ++i) {
        same = now[i].first == rq.results[i].key() &&
               now[i].second.version == rq.results[i].version;
      }
      ASSERT_EQ(ReadsAreCurrent(rw, store), same)
          << "seed " << seed << " round " << round << " range ["
          << rq.start_key << ", " << rq.end_key << ")";
      ++(same ? current : phantoms);
    }
  }
  // The sweep must exercise both outcomes.
  EXPECT_GT(phantoms, 100u);
  EXPECT_GT(current, 100u);
}

// ---------------------------------------------------------------------------
// Conflict-graph scheduling properties
// ---------------------------------------------------------------------------

TEST(ConflictGraphProperty, SerializableOrderRespectsPrecedence) {
  Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    // Random batch over a small keyspace.
    size_t n = 3 + rng.NextBelow(12);
    std::vector<ReadWriteSet> sets(n);
    for (auto& rw : sets) {
      size_t reads = rng.NextBelow(3);
      for (size_t r = 0; r < reads; ++r) {
        rw.reads.push_back(ReadItem{Id("k" + std::to_string(rng.NextBelow(5))),
                                    Version{0, 0}});
      }
      if (rng.NextBool(0.7)) {
        rw.writes.push_back(WriteItem{
            Id("k" + std::to_string(rng.NextBelow(5))), "v", false});
      }
    }
    std::vector<const ReadWriteSet*> ptrs;
    for (const auto& rw : sets) ptrs.push_back(&rw);
    ConflictGraph graph(ptrs);
    auto aborted = graph.BreakCycles();
    std::vector<bool> alive(n, true);
    for (int a : aborted) alive[static_cast<size_t>(a)] = false;
    auto order = graph.SerializableOrder(alive);

    // Every surviving transaction appears exactly once…
    std::set<int> seen(order.begin(), order.end());
    size_t alive_count = 0;
    for (bool a : alive) alive_count += a ? 1 : 0;
    EXPECT_EQ(seen.size(), order.size());
    EXPECT_EQ(order.size(), alive_count);

    // …and for every conflict edge i -> j among survivors, j precedes i.
    std::vector<size_t> position(n, 0);
    for (size_t pos = 0; pos < order.size(); ++pos) {
      position[static_cast<size_t>(order[pos])] = pos;
    }
    for (size_t i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      for (int j : graph.InvalidatedBy(static_cast<int>(i))) {
        if (!alive[static_cast<size_t>(j)]) continue;
        EXPECT_LT(position[static_cast<size_t>(j)], position[i])
            << "trial " << trial;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ServiceStation queueing invariants
// ---------------------------------------------------------------------------

TEST(ServiceStationInvariants, FifoCompletionOrderUnderEqualServiceTimes) {
  // With equal service times, a FIFO station must complete jobs in
  // submission order regardless of the number of servers.
  for (int servers : {1, 2, 3}) {
    Simulator sim;
    ServiceStation station(&sim, "peer", servers);
    std::vector<int> completion_order;
    const int n = 12;
    for (int i = 0; i < n; ++i) {
      station.Submit(2.5, [&completion_order, i]() {
        completion_order.push_back(i);
      });
    }
    sim.Run();
    ASSERT_EQ(completion_order.size(), static_cast<size_t>(n))
        << "servers=" << servers;
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(completion_order[static_cast<size_t>(i)], i)
          << "servers=" << servers;
    }
    EXPECT_EQ(station.jobs_completed(), static_cast<uint64_t>(n));
  }
}

TEST(ServiceStationInvariants, BusyTimeEqualsSumOfServiceTimes) {
  // busy_time() is a conservation quantity: queueing delays change when
  // work happens, never how much of it there is.
  Rng rng(7);
  Simulator sim;
  ServiceStation station(&sim, "endorser", 2);
  double expected = 0;
  for (int i = 0; i < 50; ++i) {
    const double service = 0.001 + rng.NextDouble() * 0.5;
    expected += service;
    station.Submit(service, []() {});
  }
  sim.Run();
  EXPECT_DOUBLE_EQ(station.busy_time(), expected);
  EXPECT_EQ(station.jobs_completed(), 50u);
}

TEST(ServiceStationInvariants, CurrentDelayIsZeroWhenIdle) {
  Simulator sim;
  ServiceStation station(&sim, "orderer", 1);
  EXPECT_EQ(station.CurrentDelay(), 0.0);  // nothing ever submitted

  station.Submit(4.0, []() {});
  station.Submit(4.0, []() {});
  EXPECT_GT(station.CurrentDelay(), 0.0);  // backlogged now

  sim.Run();  // drain; Now() advances past the last completion
  EXPECT_EQ(station.CurrentDelay(), 0.0);
}

TEST(ServiceStationInvariants, GrowMidStreamOnlyAffectsLaterSubmissions) {
  // One server, two 10s jobs at t=0 (A done at 10, B at 20). At t=5 the
  // station grows to two servers and receives C (10s): the new server is
  // free immediately, so C completes at 15 — while A and B keep their
  // original schedule.
  Simulator sim;
  ServiceStation station(&sim, "client", 1);
  std::map<std::string, SimTime> done_at;
  station.Submit(10.0, [&]() { done_at["A"] = sim.Now(); });
  station.Submit(10.0, [&]() { done_at["B"] = sim.Now(); });
  sim.ScheduleAt(5.0, [&]() {
    station.set_servers(2);
    station.Submit(10.0, [&]() { done_at["C"] = sim.Now(); });
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(done_at.at("A"), 10.0);
  EXPECT_DOUBLE_EQ(done_at.at("B"), 20.0);
  EXPECT_DOUBLE_EQ(done_at.at("C"), 15.0);
}

TEST(ServiceStationInvariants, ShrinkMidStreamOnlyAffectsLaterSubmissions) {
  // Three servers take three 10s jobs at t=0 (all done at 10). At t=1 the
  // station shrinks to one server; a fourth job must wait for the one
  // remaining server (free at 10) instead of running immediately — and
  // the in-flight jobs still complete on their original schedule.
  Simulator sim;
  ServiceStation station(&sim, "peer", 3);
  std::vector<SimTime> first_three;
  for (int i = 0; i < 3; ++i) {
    station.Submit(10.0, [&]() { first_three.push_back(sim.Now()); });
  }
  SimTime d_done = -1;
  sim.ScheduleAt(1.0, [&]() {
    station.set_servers(1);
    EXPECT_EQ(station.servers(), 1);
    station.Submit(10.0, [&]() { d_done = sim.Now(); });
  });
  sim.Run();
  ASSERT_EQ(first_three.size(), 3u);
  for (SimTime t : first_three) EXPECT_DOUBLE_EQ(t, 10.0);
  EXPECT_DOUBLE_EQ(d_done, 20.0);
}

}  // namespace
}  // namespace blockoptr
