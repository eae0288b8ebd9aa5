// Determinism-equivalence harness for the parallel experiment engine:
// proves that running the paper's Table 3 experiment set through
// SweepRunner at any thread count produces results that are
// field-for-field identical to a plain serial loop — and that repeated
// parallel runs are identical to each other. This is the regression guard
// that lets every evaluation artifact (Table 3, the figures, what-if
// re-runs) fan out over cores without risking the simulator's bit-exact
// reproducibility.
#include "driver/sweep.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "blockopt/apply/optimizer.h"
#include "blockopt/log/preprocess.h"
#include "blockopt/metrics/metrics.h"
#include "blockopt/recommend/recommender.h"
#include "driver/presets.h"
#include "telemetry/export.h"

namespace blockoptr {
namespace {

// Small enough to keep the 5 full sweeps fast, large enough that every
// experiment commits multiple blocks and triggers recommendations.
constexpr int kTxsPerExperiment = 300;

struct AnalyzedSweep {
  std::vector<PerformanceReport> reports;
  std::vector<LogMetrics> metrics;
  std::vector<std::vector<Recommendation>> recommendations;
};

std::vector<ExperimentConfig> Table3Configs() {
  std::vector<ExperimentConfig> configs;
  for (const auto& def : Table3Experiments(kTxsPerExperiment)) {
    configs.push_back(MakeSyntheticExperiment(def.workload, def.network));
  }
  return configs;
}

AnalyzedSweep Analyze(std::vector<Result<ExperimentOutput>> outputs) {
  AnalyzedSweep sweep;
  for (auto& out : outputs) {
    EXPECT_TRUE(out.ok()) << out.status();
    sweep.reports.push_back(out->report);
    LogMetrics m = ComputeMetrics(ExtractBlockchainLog(out->ledger), {});
    sweep.recommendations.push_back(Recommend(m, RecommenderOptions{}));
    sweep.metrics.push_back(std::move(m));
  }
  return sweep;
}

/// The hand-written serial loop the engine's output is measured against.
AnalyzedSweep RunSerially(const std::vector<ExperimentConfig>& configs) {
  std::vector<Result<ExperimentOutput>> outputs;
  for (const auto& cfg : configs) outputs.push_back(RunExperiment(cfg));
  return Analyze(std::move(outputs));
}

AnalyzedSweep RunWithJobs(const std::vector<ExperimentConfig>& configs,
                          int jobs) {
  return Analyze(SweepRunner(SweepOptions{jobs}).Run(configs));
}

// -- field-for-field comparators (doubles compared exactly: the contract
//    is bit-identical results, not approximately-equal results) ----------

void ExpectReportsEqual(const PerformanceReport& a,
                        const PerformanceReport& b, const std::string& ctx) {
  SCOPED_TRACE(ctx);
  EXPECT_EQ(a.total_committed(), b.total_committed());
  EXPECT_EQ(a.successful(), b.successful());
  EXPECT_EQ(a.mvcc_failures(), b.mvcc_failures());
  EXPECT_EQ(a.phantom_failures(), b.phantom_failures());
  EXPECT_EQ(a.endorsement_failures(), b.endorsement_failures());
  EXPECT_EQ(a.early_aborts(), b.early_aborts());
  EXPECT_EQ(a.SuccessRate(), b.SuccessRate());
  EXPECT_EQ(a.Throughput(), b.Throughput());
  EXPECT_EQ(a.AvgLatency(), b.AvgLatency());
  EXPECT_EQ(a.MaxLatency(), b.MaxLatency());
  EXPECT_EQ(a.duration(), b.duration());
  EXPECT_EQ(a.Summary(), b.Summary());
}

void ExpectConflictsEqual(const std::vector<ConflictPair>& a,
                          const std::vector<ConflictPair>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("conflict " + std::to_string(i));
    EXPECT_EQ(a[i].failed_commit_order, b[i].failed_commit_order);
    EXPECT_EQ(a[i].cause_commit_order, b[i].cause_commit_order);
    EXPECT_EQ(a[i].failed_activity, b[i].failed_activity);
    EXPECT_EQ(a[i].cause_activity, b[i].cause_activity);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].distance, b[i].distance);
    EXPECT_EQ(a[i].same_block, b[i].same_block);
    EXPECT_EQ(a[i].reorderable, b[i].reorderable);
    EXPECT_EQ(a[i].same_activity, b[i].same_activity);
    EXPECT_EQ(a[i].delta_candidate, b[i].delta_candidate);
  }
}

void ExpectMetricsEqual(const LogMetrics& a, const LogMetrics& b,
                        const std::string& ctx) {
  SCOPED_TRACE(ctx);
  EXPECT_EQ(a.total_txs, b.total_txs);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.tr, b.tr);
  EXPECT_EQ(a.trd, b.trd);
  EXPECT_EQ(a.failed_txs, b.failed_txs);
  EXPECT_EQ(a.mvcc_failures, b.mvcc_failures);
  EXPECT_EQ(a.phantom_failures, b.phantom_failures);
  EXPECT_EQ(a.endorsement_failures, b.endorsement_failures);
  EXPECT_EQ(a.tfr, b.tfr);
  EXPECT_EQ(a.frd, b.frd);
  EXPECT_EQ(a.num_blocks, b.num_blocks);
  EXPECT_EQ(a.b_sizeavg, b.b_sizeavg);
  EXPECT_EQ(a.endorser_sig, b.endorser_sig);
  EXPECT_EQ(a.invoker_sig, b.invoker_sig);
  EXPECT_EQ(a.invoker_org_sig, b.invoker_org_sig);
  EXPECT_EQ(a.key_freq, b.key_freq);
  EXPECT_EQ(a.key_activities, b.key_activities);
  EXPECT_EQ(a.hot_keys, b.hot_keys);
  ASSERT_EQ(a.key_accessors.size(), b.key_accessors.size());
  for (const auto& [key, accessors] : a.key_accessors) {
    auto it = b.key_accessors.find(key);
    ASSERT_NE(it, b.key_accessors.end()) << "key " << key;
    ASSERT_EQ(accessors.size(), it->second.size()) << "key " << key;
    for (const auto& [activity, stats] : accessors) {
      auto jt = it->second.find(activity);
      ASSERT_NE(jt, it->second.end()) << key << "/" << activity;
      EXPECT_EQ(stats.accesses, jt->second.accesses);
      EXPECT_EQ(stats.failures, jt->second.failures);
      EXPECT_EQ(stats.writes, jt->second.writes);
    }
  }
  ExpectConflictsEqual(a.conflicts, b.conflicts);
  EXPECT_EQ(a.activity_conflicts, b.activity_conflicts);
  EXPECT_EQ(a.intra_block_conflicts, b.intra_block_conflicts);
  EXPECT_EQ(a.inter_block_conflicts, b.inter_block_conflicts);
  EXPECT_EQ(a.adjacent_same_activity_conflicts,
            b.adjacent_same_activity_conflicts);
  EXPECT_EQ(a.delta_candidates, b.delta_candidates);
  EXPECT_EQ(a.reorderable_conflicts, b.reorderable_conflicts);
  EXPECT_EQ(a.activity_tx_types, b.activity_tx_types);
  EXPECT_EQ(a.num_activities, b.num_activities);
}

void ExpectRecommendationsEqual(const std::vector<Recommendation>& a,
                                const std::vector<Recommendation>& b,
                                const std::string& ctx) {
  SCOPED_TRACE(ctx);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("recommendation " + std::to_string(i));
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].detail, b[i].detail);
    EXPECT_EQ(a[i].activities, b[i].activities);
    EXPECT_EQ(a[i].keys, b[i].keys);
    EXPECT_EQ(a[i].orgs, b[i].orgs);
    EXPECT_EQ(a[i].suggested_block_count, b[i].suggested_block_count);
    EXPECT_EQ(a[i].suggested_rate_tps, b[i].suggested_rate_tps);
  }
}

void ExpectSweepsEqual(const AnalyzedSweep& a, const AnalyzedSweep& b,
                       const std::string& mode) {
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (size_t i = 0; i < a.reports.size(); ++i) {
    const std::string ctx = mode + ", experiment " + std::to_string(i + 1);
    ExpectReportsEqual(a.reports[i], b.reports[i], ctx);
    ExpectMetricsEqual(a.metrics[i], b.metrics[i], ctx);
    ExpectRecommendationsEqual(a.recommendations[i], b.recommendations[i],
                               ctx);
  }
}

// ---------------------------------------------------------------------------
// The equivalence matrix: serial loop vs jobs=1/2/8, plus repeatability
// ---------------------------------------------------------------------------

TEST(SweepDeterminismTest, ParallelSweepMatchesSerialFieldForField) {
  const auto configs = Table3Configs();
  const AnalyzedSweep serial = RunSerially(configs);
  ASSERT_EQ(serial.reports.size(), 15u);

  ExpectSweepsEqual(serial, RunWithJobs(configs, 1), "jobs=1");
  ExpectSweepsEqual(serial, RunWithJobs(configs, 2), "jobs=2");
  ExpectSweepsEqual(serial, RunWithJobs(configs, 8), "jobs=8");
}

TEST(SweepDeterminismTest, RepeatedParallelRunsAreIdentical) {
  const auto configs = Table3Configs();
  const AnalyzedSweep first = RunWithJobs(configs, 8);
  const AnalyzedSweep second = RunWithJobs(configs, 8);
  ExpectSweepsEqual(first, second, "repeat jobs=8");
}

TEST(SweepDeterminismTest, ResultsArriveInSubmissionOrder) {
  // Experiment 14 (send rate 1000) finishes its virtual run much earlier
  // in wall-clock terms than experiment 12 (send rate 50 — longer virtual
  // horizon); submission-order gather must hide any such skew. The config
  // at index i must map to the result at index i: check a property that
  // distinguishes the experiments (the effective network's block count
  // and the schedule size).
  auto configs = Table3Configs();
  auto outputs = SweepRunner(SweepOptions{4}).Run(configs);
  ASSERT_EQ(outputs.size(), configs.size());
  for (size_t i = 0; i < outputs.size(); ++i) {
    ASSERT_TRUE(outputs[i].ok()) << outputs[i].status();
    EXPECT_EQ(outputs[i]->network.block_cutting.max_tx_count,
              configs[i].network.block_cutting.max_tx_count)
        << "result " << i << " does not belong to config " << i;
    EXPECT_EQ(outputs[i]->report.total_committed() +
                  outputs[i]->report.early_aborts(),
              configs[i].schedule.size());
  }
}

TEST(SweepDeterminismTest, FaultedSweepMatchesSerialFieldForField) {
  // The determinism contract extends to fault injection: all fault state
  // (crash timers, endorser degradation, schedule warps) is per-run and
  // sim-time driven, so faulted experiments parallelize bit-exactly too.
  // A few Table 3 configs crossed with contrasting fault presets.
  std::vector<ExperimentConfig> configs;
  const auto defs = Table3Experiments(kTxsPerExperiment);
  const std::vector<std::string> specs = {
      "leader-crash@t=0.3,dur=0.3",
      "endorser-outage@t=0.3,org=2",
      "endorser-slow@t=0.2,org=2,factor=8,dur=0.5;burst@t=0.4,dur=0.2",
  };
  for (int number : {5, 8, 14}) {
    const auto& def = defs[static_cast<size_t>(number - 1)];
    for (const auto& spec : specs) {
      auto cfg = MakeSyntheticExperiment(def.workload, def.network);
      auto plan = ParseFaultPlan(spec);
      ASSERT_TRUE(plan.ok()) << spec;
      cfg.faults = std::move(*plan);
      configs.push_back(std::move(cfg));
    }
  }

  const AnalyzedSweep serial = RunSerially(configs);
  ExpectSweepsEqual(serial, RunWithJobs(configs, 8), "faulted jobs=8");
  ExpectSweepsEqual(serial, RunWithJobs(configs, 8),
                    "faulted jobs=8 repeat");
}

TEST(SweepDeterminismTest, TelemetryRunsAreSafeAndIdenticalAcrossJobs) {
  // Concurrent runs each own a private Telemetry (flight recorder +
  // MetricsRegistry). Ring dumps and summaries must match the serial run
  // byte for byte.
  std::vector<ExperimentConfig> configs;
  for (const auto& def : Table3Experiments(200)) {
    auto cfg = MakeSyntheticExperiment(def.workload, def.network);
    cfg.enable_telemetry = true;
    configs.push_back(std::move(cfg));
  }
  auto serial = SweepRunner(SweepOptions{1}).Run(configs);
  auto parallel = SweepRunner(SweepOptions{8}).Run(configs);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].status();
    ASSERT_TRUE(parallel[i].ok()) << parallel[i].status();
    ASSERT_NE(serial[i]->telemetry, nullptr);
    ASSERT_NE(parallel[i]->telemetry, nullptr);
    const TxTraceRecorder* a = serial[i]->telemetry->txtrace();
    const TxTraceRecorder* b = parallel[i]->telemetry->txtrace();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_GT(a->events_appended(), 0u);
    std::ostringstream a_json, b_json, a_csv, b_csv;
    WriteTxTraceRingChromeTrace(*a, a_json);
    WriteTxTraceRingChromeTrace(*b, b_json);
    WriteTxTraceRingCsv(*a, a_csv);
    WriteTxTraceRingCsv(*b, b_csv);
    EXPECT_EQ(a_json.str(), b_json.str()) << "experiment " << i + 1;
    EXPECT_EQ(a_csv.str(), b_csv.str()) << "experiment " << i + 1;
    EXPECT_EQ(TxTraceSummaryJson(a->summary()).Dump(),
              TxTraceSummaryJson(b->summary()).Dump())
        << "experiment " << i + 1;
    EXPECT_EQ(serial[i]->telemetry->metrics().SnapshotJson().Dump(),
              parallel[i]->telemetry->metrics().SnapshotJson().Dump());
  }
}

TEST(SweepDeterminismTest, WhatIfEvaluationMatchesSerialApplyRerun) {
  // The optimizer's parallel what-if path must equal a hand-rolled
  // ApplyOptimizations + RunExperiment per recommendation.
  SyntheticConfig wl;
  wl.num_txs = 500;
  ExperimentConfig cfg =
      MakeSyntheticExperiment(wl, NetworkConfig::Defaults());
  auto baseline = RunExperiment(cfg);
  ASSERT_TRUE(baseline.ok());
  auto recs = RecommendFromLog(ExtractBlockchainLog(baseline->ledger), {});
  ASSERT_FALSE(recs.empty());

  WhatIfOptions parallel_opts;
  parallel_opts.jobs = 4;
  auto whatif = EvaluateWhatIf(cfg, recs, parallel_opts);
  ASSERT_TRUE(whatif.ok()) << whatif.status();
  ASSERT_EQ(whatif->individual.size(), recs.size());

  for (size_t i = 0; i < recs.size(); ++i) {
    auto one_cfg = ApplyOptimizations(cfg, {recs[i]});
    ASSERT_TRUE(one_cfg.ok());
    auto one = RunExperiment(*one_cfg);
    ASSERT_TRUE(one.ok());
    ExpectReportsEqual(one->report, whatif->individual[i].report,
                       "what-if rec " + std::to_string(i));
  }
  auto all_cfg = ApplyOptimizations(cfg, recs);
  ASSERT_TRUE(all_cfg.ok());
  auto all = RunExperiment(*all_cfg);
  ASSERT_TRUE(all.ok());
  ExpectReportsEqual(all->report, whatif->combined, "what-if combined");
}

}  // namespace
}  // namespace blockoptr
