// Flight-recorder tests: exact critical-path extraction on a hand-built
// chain, share partitioning on real runs (per-run and per-exemplar sums
// ~1.0), ring-eviction truncation semantics, refusal/abort chains under an
// endorser outage, byte-identical exports across --jobs and --sim-threads,
// per-channel summary merging, and the disabled recorder's invisibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "driver/experiment.h"
#include "driver/faults.h"
#include "driver/presets.h"
#include "driver/sweep.h"
#include "sim/simulator.h"
#include "telemetry/bottleneck.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"
#include "telemetry/txtrace.h"
#include "workload/synthetic.h"

namespace blockoptr {
namespace {

// ---------------------------------------------------------------------------
// Recorder unit tests on a bare simulator
// ---------------------------------------------------------------------------

TxTraceOptions EnabledOptions() {
  TxTraceOptions opt;
  opt.enabled = true;
  opt.window_s = 100.0;  // one window unless a test rolls it
  return opt;
}

TEST(TxTraceRecorderTest, HandBuiltChainBreaksDownExactly) {
  Simulator sim;
  TxTraceRecorder rec(&sim, EnabledOptions());
  auto at = [&](double t, std::function<void()> fn) {
    sim.ScheduleAt(t, std::move(fn));
  };
  at(0.00, [&] { rec.TxEvent(1, TxStage::kSubmit, 3); });
  at(0.10, [&] { rec.TxEvent(1, TxStage::kProposalDone, 3, 0.1f); });
  at(0.15, [&] { rec.TxEvent(1, TxStage::kEndorseStart, 0); });
  at(0.25, [&] { rec.TxEvent(1, TxStage::kEndorseDone, 0, 0.1f); });
  at(0.30, [&] { rec.TxEvent(1, TxStage::kCollect, 3); });
  at(0.35, [&] { rec.TxEvent(1, TxStage::kAssembleDone, 3, 0.05f); });
  at(0.40, [&] { rec.TxEvent(1, TxStage::kOrdererEnqueue, 0, 0.02f); });
  at(0.50, [&] {
    rec.TxEvent(1, TxStage::kBlockCut, 0, 0, /*block_seq=*/1);
    rec.BlockEvent(1, TxStage::kRaftPropose, 0);
  });
  at(0.55, [&] { rec.BlockEvent(1, TxStage::kRaftReplicate, 0); });
  at(0.60, [&] {
    rec.BlockEvent(1, TxStage::kRaftCommit, 0);
    rec.OnBlockDelivered(7);
  });
  at(0.65, [&] { rec.ValidateEvent(7, TxStage::kValidateStart, 0); });
  at(0.75, [&] { rec.ValidateEvent(7, TxStage::kValidateDone, 0, 0.1f); });
  at(0.80, [&] { rec.CommitTx(1, /*client_timestamp=*/0.0, 7, false); });
  sim.Run();
  rec.Finalize(1.0);

  const TxTraceSummary& s = rec.summary();
  EXPECT_EQ(s.committed, 1u);
  EXPECT_EQ(s.aborted, 0u);
  EXPECT_EQ(s.truncated_chains, 0u);
  EXPECT_NEAR(s.latency_total_s, 0.8, 1e-12);

  // Boundary spans: submit 0->0.1, endorse 0.1->0.3, assemble 0.3->0.35,
  // order 0.35->0.5, raft 0.5->0.6, commit 0.6->0.8.
  const double want_span[kNumCriticalStages] = {0.10, 0.20, 0.05,
                                                0.15, 0.10, 0.20};
  const double want_service[kNumCriticalStages] = {0.10, 0.10, 0.05,
                                                   0.02, 0.10, 0.10};
  double share_sum = 0;
  for (int i = 0; i < kNumCriticalStages; ++i) {
    EXPECT_NEAR(s.stages[i].span_s, want_span[i], 1e-9) << i;
    // Service durations travel as float, so allow float-rounding slack.
    EXPECT_NEAR(s.stages[i].service_s, want_service[i], 1e-6) << i;
    EXPECT_NEAR(s.stages[i].wait_s, want_span[i] - want_service[i], 1e-6)
        << i;
    share_sum += s.StageShare(i);
  }
  EXPECT_NEAR(share_sum, 1.0, 1e-9);

  // The single chain is the window max exemplar, events time-sorted with
  // the block-scoped leg joined in.
  ASSERT_EQ(s.windows.size(), 1u);
  const TxTraceWindow& w = s.windows[0];
  EXPECT_EQ(w.committed, 1u);
  ASSERT_FALSE(w.exemplars.empty());
  const TxTraceExemplar& ex = w.exemplars.back();
  EXPECT_EQ(ex.tx_id, 1u);
  EXPECT_FALSE(ex.truncated);
  EXPECT_NEAR(ex.latency_s, 0.8, 1e-12);
  ASSERT_GE(ex.events.size(), 13u);
  for (size_t i = 1; i < ex.events.size(); ++i) {
    EXPECT_LE(ex.events[i - 1].t, ex.events[i].t);
  }
  double ex_share = 0;
  for (int i = 0; i < kNumCriticalStages; ++i) ex_share += ex.StageShare(i);
  EXPECT_NEAR(ex_share, 1.0, 1e-9);
}

TEST(TxTraceRecorderTest, AbortChainsRetainRefusalEvents) {
  Simulator sim;
  TxTraceRecorder rec(&sim, EnabledOptions());
  sim.ScheduleAt(0.0, [&] { rec.TxEvent(9, TxStage::kSubmit, 0); });
  sim.ScheduleAt(0.1, [&] { rec.TxEvent(9, TxStage::kProposalDone, 0); });
  sim.ScheduleAt(0.5, [&] { rec.TxEvent(9, TxStage::kEndorseRefused, 1); });
  sim.ScheduleAt(0.6, [&] {
    rec.TxEvent(9, TxStage::kEndorseRefused, 2);
    rec.AbortTx(9);
  });
  sim.Run();
  rec.Finalize(1.0);

  const TxTraceSummary& s = rec.summary();
  EXPECT_EQ(s.committed, 0u);
  EXPECT_EQ(s.aborted, 1u);
  ASSERT_EQ(s.windows.size(), 1u);
  ASSERT_EQ(s.windows[0].abort_exemplars.size(), 1u);
  const TxTraceExemplar& ex = s.windows[0].abort_exemplars[0];
  EXPECT_EQ(ex.tx_id, 9u);
  EXPECT_EQ(ex.label, "abort");
  int refusals = 0;
  for (const TxTraceEvent& ev : ex.events) {
    if (ev.stage == TxStage::kEndorseRefused) ++refusals;
  }
  EXPECT_EQ(refusals, 2);
}

TEST(TxTraceRecorderTest, RingEvictionTruncatesChainsButKeepsCounts) {
  Simulator sim;
  TxTraceOptions opt = EnabledOptions();
  opt.ring_capacity = 16;  // tiny: long-lived chains lose their heads
  TxTraceRecorder rec(&sim, opt);
  const int kTxs = 40;
  for (int i = 0; i < kTxs; ++i) {
    uint64_t id = static_cast<uint64_t>(i + 1);
    double base = i * 0.01;
    sim.ScheduleAt(base, [&rec, id] { rec.TxEvent(id, TxStage::kSubmit, 0); });
    sim.ScheduleAt(base + 0.001, [&rec, id] {
      rec.TxEvent(id, TxStage::kProposalDone, 0);
    });
  }
  // All commits land after every submit, so the ring (16 slots for 80+
  // events) has evicted the early chain heads by then.
  for (int i = 0; i < kTxs; ++i) {
    uint64_t id = static_cast<uint64_t>(i + 1);
    sim.ScheduleAt(1.0 + i * 0.001, [&rec, id, i] {
      rec.CommitTx(id, i * 0.01, 1, false);
    });
  }
  sim.Run();
  rec.Finalize(2.0);

  const TxTraceSummary& s = rec.summary();
  // Counts stay exact even though chains were cut.
  EXPECT_EQ(s.committed, static_cast<uint64_t>(kTxs));
  EXPECT_GT(s.events_evicted, 0u);
  EXPECT_GT(s.truncated_chains, 0u);
  // Truncation is flagged, never silent: at least one retained exemplar
  // carries the flag, and latency (from the commit-side timestamps) is
  // still exact.
  bool saw_truncated = false;
  for (const TxTraceWindow& w : s.windows) {
    for (const TxTraceExemplar& ex : w.exemplars) {
      if (ex.truncated) saw_truncated = true;
      EXPECT_GT(ex.latency_s, 0.6);
    }
  }
  EXPECT_TRUE(saw_truncated);
}

// ---------------------------------------------------------------------------
// End-to-end runs
// ---------------------------------------------------------------------------

ExperimentConfig TracedExperiment(int num_txs, double rate,
                                  int channels = 1, int sim_threads = 1) {
  SyntheticConfig wl;
  wl.num_txs = num_txs;
  wl.send_rate = rate;
  ExperimentConfig cfg =
      MakeSyntheticExperiment(wl, NetworkConfig::Defaults());
  cfg.channels = channels;
  cfg.sim_threads = sim_threads;
  cfg.enable_telemetry = true;
  cfg.telemetry_options.txtrace.enabled = true;
  return cfg;
}

TEST(TxTraceE2ETest, SharesPartitionCommittedLatencyExactly) {
  auto out = RunExperiment(TracedExperiment(400, 200));
  ASSERT_TRUE(out.ok()) << out.status();
  const TxTraceRecorder* rec = out->telemetry->txtrace();
  ASSERT_NE(rec, nullptr);
  const TxTraceSummary& s = rec->summary();

  // Every committed workload transaction went through the recorder.
  EXPECT_EQ(s.committed, out->report.total_committed());
  EXPECT_GT(s.latency_total_s, 0.0);

  double span_sum = 0, share_sum = 0;
  for (int i = 0; i < kNumCriticalStages; ++i) {
    span_sum += s.stages[i].span_s;
    share_sum += s.StageShare(i);
    EXPECT_GE(s.stages[i].wait_s, -1e-9);
    EXPECT_LE(s.stages[i].service_s, s.stages[i].span_s + 1e-9);
  }
  // The six spans partition total committed latency (shares sum to 1).
  EXPECT_NEAR(span_sum, s.latency_total_s, 1e-6 * s.latency_total_s);
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
  EXPECT_GE(s.DominantStage(), 0);

  ASSERT_FALSE(s.windows.empty());
  for (const TxTraceWindow& w : s.windows) {
    EXPECT_LE(w.p50_s, w.p95_s);
    EXPECT_LE(w.p95_s, w.p99_s);
    EXPECT_LE(w.p99_s, w.max_s);
    for (const TxTraceExemplar& ex : w.exemplars) {
      double sum = 0;
      for (int i = 0; i < kNumCriticalStages; ++i) sum += ex.StageShare(i);
      EXPECT_NEAR(sum, 1.0, 1e-9) << "tx " << ex.tx_id;
    }
  }
}

TEST(TxTraceE2ETest, RecorderDoesNotPerturbTheRunOutcome) {
  ExperimentConfig cfg = TracedExperiment(300, 300);
  cfg.enable_telemetry = false;
  cfg.telemetry_options = TelemetryOptions();
  auto off = RunExperiment(cfg);
  cfg.enable_telemetry = true;
  cfg.telemetry_options = TelemetryOptions::TxTraceOnly();
  auto traced = RunExperiment(cfg);
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(traced.ok());
  EXPECT_EQ(off->report.Summary(), traced->report.Summary());
  EXPECT_EQ(off->ledger.NumBlocks(), traced->ledger.NumBlocks());
  EXPECT_DOUBLE_EQ(off->sim_end_time, traced->sim_end_time);
}

TEST(TxTraceE2ETest, EndorserOutageRefusalsAppearOnRetainedChains) {
  ExperimentConfig cfg = TracedExperiment(600, 300);
  auto plan = ParseFaultPlan("endorser-outage@t=0.5,org=2");
  ASSERT_TRUE(plan.ok()) << plan.status();
  cfg.faults = *plan;
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  const TxTraceSummary& s = out->telemetry->txtrace()->summary();
  EXPECT_EQ(s.committed + s.aborted,
            out->report.total_committed() + out->report.early_aborts());

  // Transactions starved of Org2's signature wait out the endorse
  // timeout, making them the window's slowest — so the retained tail
  // exemplars must carry the refusal events.
  int refusals = 0;
  bool failed_exemplar = false;
  for (const TxTraceWindow& w : s.windows) {
    for (const auto* list : {&w.exemplars, &w.abort_exemplars}) {
      for (const TxTraceExemplar& ex : *list) {
        for (const TxTraceEvent& ev : ex.events) {
          if (ev.stage == TxStage::kEndorseRefused) ++refusals;
          if (ev.flags & TxTraceEvent::kFailed) failed_exemplar = true;
        }
      }
    }
  }
  EXPECT_GT(refusals, 0);
  EXPECT_TRUE(failed_exemplar);
}

std::string ChromeTraceOf(const ExperimentOutput& out) {
  std::ostringstream os;
  WriteTxTraceChromeTrace(out.telemetry->txtrace()->summary(), os);
  return os.str();
}

TEST(TxTraceDeterminismTest, SweepJobsDoNotChangeTheTrace) {
  std::vector<ExperimentConfig> configs;
  for (double rate : {150.0, 300.0}) {
    configs.push_back(TracedExperiment(200, rate));
  }
  auto serial = SweepRunner(SweepOptions{1}).Run(configs);
  auto parallel = SweepRunner(SweepOptions{8}).Run(configs);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok());
    ASSERT_TRUE(parallel[i].ok());
    EXPECT_EQ(ChromeTraceOf(*serial[i]), ChromeTraceOf(*parallel[i])) << i;
    EXPECT_EQ(
        TxTraceSummaryJson(serial[i]->telemetry->txtrace()->summary())
            .Dump(),
        TxTraceSummaryJson(parallel[i]->telemetry->txtrace()->summary())
            .Dump())
        << i;
  }
}

TEST(TxTraceDeterminismTest, ShardedRunsAreIdenticalForEveryThreadCount) {
  std::vector<ExperimentOutput> runs;
  for (int threads : {1, 8}) {
    auto out = RunExperiment(TracedExperiment(1200, 300, 4, threads));
    ASSERT_TRUE(out.ok()) << out.status();
    ASSERT_EQ(out->channels.size(), 4u);
    runs.push_back(std::move(*out));
  }
  TxTraceSummary merged[2];
  for (int r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      const TxTraceRecorder* rec = runs[r].channels[c].telemetry->txtrace();
      ASSERT_NE(rec, nullptr);
      if (c == 0) {
        merged[r] = rec->summary();
      } else {
        merged[r].Merge(rec->summary());
      }
      // Per-channel traces byte-identical across thread counts.
      if (r == 1) {
        std::ostringstream a, b;
        WriteTxTraceChromeTrace(runs[0].channels[c].telemetry->txtrace()
                                    ->summary(),
                                a);
        WriteTxTraceChromeTrace(rec->summary(), b);
        EXPECT_EQ(a.str(), b.str()) << c;
      }
    }
  }
  // Merged summaries identical too, and merge preserves totals.
  EXPECT_EQ(TxTraceSummaryJson(merged[0]).Dump(),
            TxTraceSummaryJson(merged[1]).Dump());
  uint64_t committed = 0;
  double latency = 0;
  for (size_t c = 0; c < 4; ++c) {
    const TxTraceSummary& s =
        runs[0].channels[c].telemetry->txtrace()->summary();
    committed += s.committed;
    latency += s.latency_total_s;
  }
  EXPECT_EQ(merged[0].committed, committed);
  EXPECT_NEAR(merged[0].latency_total_s, latency, 1e-9);
  double share_sum = 0;
  for (int i = 0; i < kNumCriticalStages; ++i) {
    share_sum += merged[0].StageShare(i);
  }
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Exports
// ---------------------------------------------------------------------------

TEST(TxTraceExportTest, ChromeTraceIsValidJsonWithFlowArrows) {
  auto out = RunExperiment(TracedExperiment(400, 200));
  ASSERT_TRUE(out.ok()) << out.status();
  std::string trace = ChromeTraceOf(*out);
  auto parsed = JsonValue::Parse(trace);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const auto& events = (*parsed)["traceEvents"].as_array();
  ASSERT_FALSE(events.empty());
  int slices = 0, flow_starts = 0, flow_ends = 0;
  for (const JsonValue& ev : events) {
    const std::string& ph = ev["ph"].as_string();
    if (ph == "X") ++slices;
    if (ph == "s") ++flow_starts;
    if (ph == "f") ++flow_ends;
  }
  EXPECT_GT(slices, 0);
  EXPECT_GT(flow_starts, 0);
  EXPECT_EQ(flow_starts, flow_ends);  // every chain's arrow terminates
}

/// Number of events a ring dump must hold: the whole run when it fits.
uint64_t RetainedEvents(const TxTraceRecorder& rec) {
  const uint64_t cap = rec.options().ring_capacity;
  return rec.events_appended() < cap ? rec.events_appended() : cap;
}

/// Checks one ring dump pair (Chrome JSON + CSV) against the recorder and
/// returns them concatenated for byte comparisons.
std::string CheckedRingDump(const TxTraceRecorder& rec) {
  std::ostringstream json, csv;
  WriteTxTraceRingChromeTrace(rec, json);
  WriteTxTraceRingCsv(rec, csv);
  auto parsed = JsonValue::Parse(json.str());
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  if (!parsed.ok()) return "";
  uint64_t slices = 0, complete = 0;
  for (const JsonValue& ev : (*parsed)["traceEvents"].as_array()) {
    const std::string& ph = ev["ph"].as_string();
    if (ph == "X" || ph == "i") ++slices;
    if (ph == "X") ++complete;
  }
  EXPECT_EQ(slices, RetainedEvents(rec));
  EXPECT_GT(complete, 0u);
  const std::string text = csv.str();
  EXPECT_EQ(text.rfind("seq,tx_id,stage,t_s,dur_s,actor,block_seq,prev,"
                       "flags\n",
                       0),
            0u);
  const uint64_t lines = static_cast<uint64_t>(
      std::count(text.begin(), text.end(), '\n'));
  EXPECT_EQ(lines, 1 + RetainedEvents(rec));
  return json.str() + text;
}

TEST(TxTraceExportTest, RingChromeTraceIsValidAndComplete) {
  auto out = RunExperiment(TracedExperiment(200, 200));
  ASSERT_TRUE(out.ok()) << out.status();
  const TxTraceRecorder& rec = *out->telemetry->txtrace();
  ASSERT_EQ(rec.events_evicted(), 0u);

  std::ostringstream json;
  WriteTxTraceRingChromeTrace(rec, json);
  auto parsed = JsonValue::Parse(json.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ((*parsed)["displayTimeUnit"].as_string(), "ms");
  const auto& events = (*parsed)["traceEvents"].as_array();
  // Six process_name metadata events, then one slice per retained event.
  ASSERT_EQ(events.size(), 6 + RetainedEvents(rec));
  std::set<std::string> process_names;
  std::set<double> committed_tids;
  size_t complete = 0;
  for (const auto& ev : events) {
    const std::string& ph = ev["ph"].as_string();
    if (ph == "M") {
      EXPECT_EQ(ev["name"].as_string(), "process_name");
      process_names.insert(ev["args"]["name"].as_string());
      continue;
    }
    ASSERT_TRUE(ph == "X" || ph == "i") << ph;
    EXPECT_GE(ev["pid"].as_number(), 1);
    EXPECT_LE(ev["pid"].as_number(), 6);
    EXPECT_EQ(ev["cat"].as_string(), "txtrace");
    EXPECT_EQ(ev["tid"].as_number(), ev["args"]["tx_id"].as_number());
    // Slices start at t - dur; dur travels as float, so a slice ending a
    // service that began at t=0 may start a float rounding (~0.01 us) early.
    EXPECT_GE(ev["ts"].as_number(), -0.01);
    if (ph == "X") {
      ++complete;
      EXPECT_GT(ev["dur"].as_number(), 0);
    }
    if (ev["name"].as_string() == "commit") {
      committed_tids.insert(ev["tid"].as_number());
    }
  }
  EXPECT_EQ(process_names,
            (std::set<std::string>{"client", "endorser", "orderer", "raft",
                                   "validator", "ledger"}));
  EXPECT_GT(complete, 0u);
  // Every transaction of the run reaches the ledger: none is lost.
  EXPECT_EQ(committed_tids.size(), 200u);
}

TEST(TxTraceExportTest, RingCsvHasHeaderAndRows) {
  auto out = RunExperiment(TracedExperiment(50, 200));
  ASSERT_TRUE(out.ok()) << out.status();
  const TxTraceRecorder& rec = *out->telemetry->txtrace();

  std::ostringstream csv;
  WriteTxTraceRingCsv(rec, csv);
  const std::string text = csv.str();
  EXPECT_EQ(text.rfind("seq,tx_id,stage,t_s,dur_s,actor,block_seq,prev,"
                       "flags\n",
                       0),
            0u);
  std::istringstream lines(text);
  std::string line;
  std::getline(lines, line);  // header
  uint64_t rows = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 8) << line;
    EXPECT_EQ(line.rfind(std::to_string(rows) + ",", 0), 0u) << line;
    ++rows;
  }
  EXPECT_EQ(rows, RetainedEvents(rec));
  EXPECT_NE(text.find(",submit,"), std::string::npos);
  EXPECT_NE(text.find(",commit,"), std::string::npos);
}

TEST(TxTraceExportTest, RingDumpHasOneSlicePerRetainedEvent) {
  auto out = RunExperiment(TracedExperiment(400, 200));
  ASSERT_TRUE(out.ok()) << out.status();
  const TxTraceRecorder& rec = *out->telemetry->txtrace();
  ASSERT_EQ(rec.events_evicted(), 0u);  // the whole run fits
  CheckedRingDump(rec);

  // A ring smaller than the run keeps exactly its last `capacity` events.
  ExperimentConfig small = TracedExperiment(400, 200);
  small.telemetry_options.txtrace.ring_capacity = 256;
  auto evicted = RunExperiment(small);
  ASSERT_TRUE(evicted.ok()) << evicted.status();
  const TxTraceRecorder& ring = *evicted->telemetry->txtrace();
  EXPECT_GT(ring.events_evicted(), 0u);
  EXPECT_EQ(RetainedEvents(ring), 256u);
  CheckedRingDump(ring);
  uint64_t first = 0, count = 0;
  ring.ForEachRetained([&](uint64_t seq, const TxTraceEvent&) {
    if (count++ == 0) first = seq;
    EXPECT_EQ(seq, first + count - 1);  // ring-sequence order
  });
  EXPECT_EQ(first + count, ring.events_appended());
}

TEST(TxTraceExportTest, RingDumpIsIdenticalForEverySimThreadCount) {
  std::vector<std::string> dumps[2];
  for (int t = 0; t < 2; ++t) {
    auto out = RunExperiment(TracedExperiment(1200, 300, 2, t + 1));
    ASSERT_TRUE(out.ok()) << out.status();
    ASSERT_EQ(out->channels.size(), 2u);
    for (const ExperimentOutput& ch : out->channels) {
      dumps[t].push_back(CheckedRingDump(*ch.telemetry->txtrace()));
    }
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(TxTraceExportTest, MetricsJsonAndPrometheusCarryTxTraceSections) {
  auto out = RunExperiment(TracedExperiment(400, 200));
  ASSERT_TRUE(out.ok()) << out.status();
  auto parsed =
      JsonValue::Parse(TelemetrySnapshotJson(*out->telemetry).Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue& tx = (*parsed)["txtrace"];
  ASSERT_TRUE(tx.is_object());
  EXPECT_GT(tx["committed"].as_number(), 0);
  EXPECT_TRUE(tx["stages"].is_array());
  EXPECT_EQ(tx["stages"].as_array().size(),
            static_cast<size_t>(kNumCriticalStages));
  EXPECT_TRUE(tx["windows"].is_array());
  ASSERT_FALSE(tx["windows"].as_array().empty());
  EXPECT_TRUE(tx["windows"].as_array()[0]["exemplars"].is_array());

  std::ostringstream prom;
  WritePrometheusText(*out->telemetry, prom);
  EXPECT_NE(prom.str().find("blockoptr_txtrace_committed_total"),
            std::string::npos);
  EXPECT_NE(prom.str().find("blockoptr_txtrace_stage_share{stage=\"order\"}"),
            std::string::npos);
}

TEST(TxTraceExportTest, HtmlReportRendersTheWaterfall) {
  auto out = RunExperiment(TracedExperiment(400, 200));
  ASSERT_TRUE(out.ok()) << out.status();
  BottleneckReport report =
      ComputeBottleneckReport(*out->telemetry, out->sim_end_time);
  std::ostringstream html;
  WriteHtmlReport(html, "txtrace run", {{"transactions", "400"}},
                  *out->telemetry, report);
  EXPECT_NE(html.str().find("Critical path (flight recorder)"),
            std::string::npos);
  EXPECT_NE(html.str().find("Tail-latency exemplars"), std::string::npos);
  EXPECT_NE(html.str().find("class=\"wait\""), std::string::npos);
  EXPECT_NE(html.str().find("class=\"svc\""), std::string::npos);
}

TEST(TxTraceDisabledTest, RecorderIsAbsentAndExportsOmitTheSections) {
  SyntheticConfig wl;
  wl.num_txs = 200;
  wl.send_rate = 200;
  ExperimentConfig cfg =
      MakeSyntheticExperiment(wl, NetworkConfig::Defaults());
  cfg.enable_telemetry = true;
  cfg.telemetry_options = TelemetryOptions::SamplerOnly();
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->telemetry->txtrace(), nullptr);
  auto parsed =
      JsonValue::Parse(TelemetrySnapshotJson(*out->telemetry).Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE((*parsed)["txtrace"].is_null());
  std::ostringstream prom;
  WritePrometheusText(*out->telemetry, prom);
  EXPECT_EQ(prom.str().find("txtrace"), std::string::npos);
  // No recorder, no stage histograms: the breakdown is empty.
  EXPECT_TRUE(ComputeStageBreakdown(out->telemetry->metrics()).empty());
}

}  // namespace
}  // namespace blockoptr
