// Golden-file regression test for the Table 3 recommendation output.
//
// The paper's headline artifact is the mapping "experiment -> which of the
// nine optimizations BlockOptR recommends" (Table 3). This test renders
// that mapping (plus the key numeric parameters of each recommendation)
// for the full experiment set and compares it line-for-line against
// tests/golden/table3_recommendations.txt. Any change to the simulator,
// the metrics pipeline, or the detection rules that shifts a
// recommendation shows up as a readable diff here.
//
// To regenerate after an intentional change:
//   BLOCKOPTR_REGEN_GOLDEN=1 ./build/tests/golden_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "blockopt/eventlog/event_log.h"
#include "blockopt/eventlog/xes_export.h"
#include "blockopt/log/export.h"
#include "blockopt/log/preprocess.h"
#include "blockopt/recommend/recommender.h"
#include "blockopt/recommend/report.h"
#include "driver/experiment.h"
#include "driver/presets.h"
#include "driver/robustness.h"
#include "driver/sweep.h"
#include "telemetry/bottleneck.h"
#include "telemetry/export.h"

namespace blockoptr {
namespace {

// Matches the determinism tests: small enough to run fast, large enough
// that every failure-driven rule can fire.
constexpr int kTxsPerExperiment = 300;

std::string GoldenPath(const std::string& name) {
  return std::string(BLOCKOPTR_TEST_DATA_DIR) + "/golden/" + name;
}

/// Shared compare-or-regenerate step: under BLOCKOPTR_REGEN_GOLDEN=1 the
/// rendering is written back to the source tree and the test skips;
/// otherwise any divergence fails with a line-by-line diff.
void CompareAgainstGolden(const std::string& actual,
                          const std::string& path) {
  if (std::getenv("BLOCKOPTR_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — regenerate with BLOCKOPTR_REGEN_GOLDEN=1 ./build/tests/golden_test";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();

  if (expected != actual) {
    // Line-by-line diff keeps the failure actionable.
    std::istringstream ea(expected), aa(actual);
    std::string el, al;
    int line = 0;
    while (true) {
      const bool have_e = static_cast<bool>(std::getline(ea, el));
      const bool have_a = static_cast<bool>(std::getline(aa, al));
      ++line;
      if (!have_e && !have_a) break;
      EXPECT_EQ(have_e ? el : "<eof>", have_a ? al : "<eof>")
          << "golden mismatch at line " << line;
    }
    FAIL() << "output diverged from " << path
           << " — if intentional, regenerate with BLOCKOPTR_REGEN_GOLDEN=1";
  }
}

std::string FormatRecommendationLine(const Recommendation& rec) {
  std::ostringstream os;
  os << "  - " << RecommendationNames({rec});
  if (rec.suggested_block_count > 0) {
    os << " block_count=" << rec.suggested_block_count;
  }
  if (rec.suggested_rate_tps > 0) {
    os << " rate_tps=" << rec.suggested_rate_tps;
  }
  if (!rec.orgs.empty()) {
    os << " orgs=";
    for (size_t i = 0; i < rec.orgs.size(); ++i) {
      os << (i ? "," : "") << rec.orgs[i];
    }
  }
  if (!rec.activities.empty()) {
    os << " activities=" << rec.activities.size();
  }
  if (!rec.keys.empty()) {
    os << " keys=" << rec.keys.size();
  }
  os << "\n";
  return os.str();
}

std::string RenderTable3Recommendations() {
  std::ostringstream os;
  os << "# Golden Table 3 recommendations (" << kTxsPerExperiment
     << " txs per experiment).\n"
     << "# Regenerate: BLOCKOPTR_REGEN_GOLDEN=1 ./build/tests/golden_test\n";
  const auto defs = Table3Experiments(kTxsPerExperiment);
  std::vector<ExperimentConfig> configs;
  configs.reserve(defs.size());
  for (const auto& def : defs) {
    configs.push_back(MakeSyntheticExperiment(def.workload, def.network));
  }
  auto outputs = SweepRunner(SweepOptions{1}).Run(configs);
  for (size_t i = 0; i < defs.size(); ++i) {
    EXPECT_TRUE(outputs[i].ok()) << outputs[i].status();
    if (!outputs[i].ok()) continue;
    const auto recs = RecommendFromLog(
        ExtractBlockchainLog(outputs[i]->ledger), RecommenderOptions{});
    os << "#" << defs[i].number << " " << defs[i].label << "\n";
    if (recs.empty()) {
      os << "  - (none)\n";
    } else {
      for (const auto& rec : recs) os << FormatRecommendationLine(rec);
    }
  }
  return os.str();
}

TEST(GoldenTest, Table3RecommendationsMatchGoldenFile) {
  CompareAgainstGolden(RenderTable3Recommendations(),
                       GoldenPath("table3_recommendations.txt"));
}

TEST(GoldenTest, FaultRobustnessMatrixMatchesGoldenFile) {
  // The hold/appeared/withdrawn matrix for one faulted Table 3 workload
  // (update-heavy — the conflict-rich case) under the standard scenario
  // library. Any simulator, fault-injection, or recommender change that
  // flips a verdict shows up as a readable diff here.
  const auto defs = Table3Experiments(kTxsPerExperiment);
  const auto& def = defs[4];  // #5: Workload Update-heavy
  ExperimentConfig base =
      MakeSyntheticExperiment(def.workload, def.network);
  const double horizon =
      static_cast<double>(def.workload.num_txs) / def.workload.send_rate;
  auto results =
      EvaluateRobustness(base, StandardFaultScenarios(horizon),
                         RecommenderOptions{}, /*jobs=*/1);
  ASSERT_TRUE(results.ok()) << results.status();

  std::string actual =
      "# Golden fault-robustness matrix (" +
      std::to_string(kTxsPerExperiment) +
      " txs, standard scenarios).\n"
      "# Regenerate: BLOCKOPTR_REGEN_GOLDEN=1 ./build/tests/golden_test\n" +
      FormatRobustnessMatrix(def.label, *results);
  CompareAgainstGolden(actual, GoldenPath("fault_robustness.txt"));
}

// ---------------------------------------------------------------------------
// Byte-identity pins of the log exports (paper §4.1–4.2): the CSV, JSON and
// XES serializers may change how they write, never what they write.
// ---------------------------------------------------------------------------

/// Five hand-built rows covering the serializers' edge cases: JSON escapes
/// (quote, backslash, \x01, tab, newline), CSV quoting (commas, quotes,
/// newlines), XML entities (& < > " '), negative, fractional and >= 1e15
/// numbers, empty arrays, range bounds, delete keys, every status, and an
/// XES timestamp whose milliseconds round up to 1000.
BlockchainLog EdgeCaseLog() {
  std::vector<BlockchainLogEntry> rows(5);
  rows[0].client_timestamp = -1.5;
  rows[0].activity = "say \"hi\"\\there";
  rows[0].args = {"case&<1>", "a,b", "q\"x"};
  rows[0].endorsers = {"Org1MSP", "Org2MSP"};
  rows[0].invoker_client = "client\t1";
  rows[0].invoker_org = "Org1MSP";
  rows[0].read_keys = {"k\x01", "k\n2"};
  rows[0].writes = {{"k1", "v,1"}, {"k\"2", "-3.5"}};
  rows[0].tx_type = TxType::kUpdate;
  rows[0].commit_order = 0;
  rows[0].chaincode = "gen";
  rows[0].tx_id = 1000000000000000ULL;
  rows[0].block_num = 1;
  rows[0].tx_pos = 0;
  rows[0].commit_timestamp = 3723.4567;

  rows[1].client_timestamp = 0.1;
  rows[1].activity = "range<scan>";
  rows[1].args = {"case'2'", ""};
  rows[1].invoker_client = "client2";
  rows[1].invoker_org = "Org2MSP";
  rows[1].read_keys = {"key001", "key002"};
  rows[1].range_bounds = {{"key000", "key020"}, {"a\"", "b\\"}};
  rows[1].status = TxStatus::kPhantomReadConflict;
  rows[1].tx_type = TxType::kRangeRead;
  rows[1].commit_order = 1;
  rows[1].chaincode = "gen,chain";
  rows[1].tx_id = 9007199254740993ULL;
  rows[1].block_num = 1;
  rows[1].tx_pos = 1;
  rows[1].commit_timestamp = 59.9996;

  rows[2].client_timestamp = 1e15;
  rows[2].activity = "delete";
  rows[2].args = {"case&<1>", "-0"};
  rows[2].endorsers = {"Org1MSP"};
  rows[2].invoker_client = "c3";
  rows[2].invoker_org = "Org1MSP";
  rows[2].delete_keys = {"gone", "also\"gone"};
  rows[2].status = TxStatus::kMvccReadConflict;
  rows[2].tx_type = TxType::kDelete;
  rows[2].commit_order = 2;
  rows[2].chaincode = "gen";
  rows[2].tx_id = 12345678901234567ULL;
  rows[2].block_num = 4294967296ULL;
  rows[2].tx_pos = 4294967295U;
  rows[2].commit_timestamp = 86400.0005;

  rows[3].client_timestamp = 123456789.123456789;
  rows[3].activity = "write";
  rows[3].args = {"case>3", "x\r\ny"};
  rows[3].endorsers = {"Org2MSP", "Org1MSP", "Org3MSP"};
  rows[3].invoker_client = "c4";
  rows[3].invoker_org = "Org3MSP";
  rows[3].writes = {{"w", ""}};
  rows[3].status = TxStatus::kEndorsementPolicyFailure;
  rows[3].tx_type = TxType::kWrite;
  rows[3].commit_order = 3;
  rows[3].chaincode = "gen";
  rows[3].tx_id = 4;
  rows[3].block_num = 2;
  rows[3].tx_pos = 0;
  rows[3].commit_timestamp = 1e-7;

  rows[4].client_timestamp = -0.000001;
  rows[4].activity = "read";
  rows[4].args = {"case'2'"};
  rows[4].invoker_client = "";
  rows[4].invoker_org = "";
  rows[4].read_keys = {"key\\path"};
  rows[4].status = TxStatus::kValid;
  rows[4].tx_type = TxType::kRead;
  rows[4].commit_order = 4;
  rows[4].chaincode = "";
  rows[4].tx_id = 5;
  rows[4].block_num = 2;
  rows[4].tx_pos = 1;
  rows[4].commit_timestamp = 2.5e6;
  return BlockchainLog(std::move(rows));
}

std::string LogCsv(const BlockchainLog& log) {
  std::ostringstream os;
  WriteLogCsv(log, os);
  return os.str();
}

std::string LogXes(const BlockchainLog& log) {
  EventLogOptions options;
  options.case_arg_index = 0;
  auto events = EventLog::FromBlockchainLog(log, options);
  EXPECT_TRUE(events.ok()) << events.status();
  if (!events.ok()) return "";
  std::ostringstream os;
  WriteXes(*events, os);
  return os.str();
}

TEST(GoldenTest, LogExportEdgeCasesMatchGoldenFiles) {
  const BlockchainLog log = EdgeCaseLog();
  CompareAgainstGolden(LogToJson(log).DumpPretty(),
                       GoldenPath("log_export_edge.json"));
  CompareAgainstGolden(LogCsv(log), GoldenPath("log_export_edge.csv"));
  CompareAgainstGolden(LogXes(log), GoldenPath("log_export_edge.xes"));
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string HashLine(const char* name, const std::string& bytes) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s %zu %016llx\n", name, bytes.size(),
                static_cast<unsigned long long>(Fnv1a64(bytes)));
  return buf;
}

TEST(GoldenTest, SeededRunExportHashesMatchGoldenFile) {
  // A seeded 2k-tx Table 2 run, hashed instead of stored: its log
  // exports and its metrics JSON (--metrics-out) are too large to keep.
  SyntheticConfig workload;
  workload.num_txs = 2000;
  workload.seed = 7;
  ExperimentConfig cfg =
      MakeSyntheticExperiment(workload, NetworkConfig::Defaults());
  cfg.enable_telemetry = true;
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_NE(out->telemetry, nullptr);
  const BlockchainLog log = ExtractBlockchainLog(out->ledger);
  const BottleneckReport bottleneck = ComputeBottleneckReport(
      *out->telemetry, out->sim_end_time, &out->fault_windows);

  std::string actual =
      "# FNV-1a-64 of the exports of a seeded 2000-tx run: name bytes hash.\n"
      "# Regenerate: BLOCKOPTR_REGEN_GOLDEN=1 ./build/tests/golden_test\n";
  actual += HashLine("log.csv", LogCsv(log));
  actual += HashLine("log.json", LogToJson(log).DumpPretty());
  actual += HashLine("log.xes", LogXes(log));
  actual += HashLine(
      "metrics.json",
      TelemetrySnapshotJson(*out->telemetry, &bottleneck).DumpPretty());
  CompareAgainstGolden(actual, GoldenPath("log_export_hashes.txt"));
}

}  // namespace
}  // namespace blockoptr
