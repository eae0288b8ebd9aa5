#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/json.h"
#include "driver/experiment.h"
#include "sim/simulator.h"
#include "telemetry/metrics.h"
#include "telemetry/bottleneck.h"
#include "telemetry/telemetry.h"
#include "workload/synthetic.h"

namespace blockoptr {
namespace {

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterAccumulates) {
  MetricsRegistry reg;
  reg.counter("a.total").Increment();
  reg.counter("a.total").Increment(4);
  EXPECT_EQ(reg.counter("a.total").value(), 5u);
  EXPECT_EQ(reg.counters().size(), 1u);
}

TEST(MetricsTest, RepeatedLookupReturnsSameInstance) {
  MetricsRegistry reg;
  Counter& first = reg.counter("x");
  reg.counter("y").Increment();  // map growth must not invalidate `first`
  first.Increment();
  EXPECT_EQ(reg.counter("x").value(), 1u);
  EXPECT_EQ(&reg.counter("x"), &first);
}

TEST(MetricsTest, GaugeTracksExtremes) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("depth");
  g.Set(3);
  g.Set(10);
  g.Set(5);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  EXPECT_DOUBLE_EQ(g.min(), 3.0);
  EXPECT_DOUBLE_EQ(g.max(), 10.0);
  g.Add(-7);
  EXPECT_DOUBLE_EQ(g.value(), -2.0);
  EXPECT_DOUBLE_EQ(g.min(), -2.0);
}

TEST(MetricsTest, UntouchedGaugeIsAllZero) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_DOUBLE_EQ(g.min(), 0.0);
  EXPECT_DOUBLE_EQ(g.max(), 0.0);
}

TEST(MetricsTest, HistogramBucketsAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 5.0});
  h.Observe(0.5);  // <= 1.0
  h.Observe(1.0);  // exactly on a bound -> that bucket, not the next
  h.Observe(1.5);  // <= 2.0
  h.Observe(100);  // overflow
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 0u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 103.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 103.0 / 4.0);
}

TEST(MetricsTest, EmptyHistogramMeanIsZero) {
  Histogram h(MetricsRegistry::RatioBounds());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(MetricsTest, EmptyHistogramQuantileIsZero) {
  Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 0.0);
}

TEST(MetricsTest, QuantileInterpolatesWithinABucket) {
  Histogram h({1.0, 2.0, 5.0});
  // One observation below, ten inside and one above the (1, 2] bucket.
  h.Observe(0.5);
  for (int i = 0; i < 10; ++i) h.Observe(1.5);
  h.Observe(3.0);
  // The q-th observation interpolates across the bucket's [1, 2] range.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 1.5);  // 1 + (6 - 1) / 10
  EXPECT_NEAR(h.Quantile(0.25), 1.2, 1e-9);  // 1 + (3 - 1) / 10
  // The top bucket (2, 5] ends at the exact max.
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 3.0);
  // Out-of-range q clamps.
  EXPECT_DOUBLE_EQ(h.Quantile(-1), h.Quantile(0));
  EXPECT_DOUBLE_EQ(h.Quantile(2), h.Quantile(1));
}

TEST(MetricsTest, QuantileFirstBucketInterpolatesFromZero) {
  Histogram h({4.0, 8.0});
  h.Observe(0);
  h.Observe(4);  // both land in the first bucket: [0, 4]
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2.0);  // 0 + 4 * (1/2)
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 4.0);
}

TEST(MetricsTest, QuantileStaysWithinTheObservedRange) {
  // Both observations sit inside the first bucket [0, 4]: interpolation
  // spans only [min, max] = [1, 2] of it.
  Histogram h({4.0, 8.0});
  h.Observe(1);
  h.Observe(2);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 1.5);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 2.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.5);  // rank clamps to the first
}

TEST(MetricsTest, QuantileInOverflowBucketIsTheExactMax) {
  Histogram h({1.0, 2.0});
  h.Observe(0.5);
  h.Observe(100);  // overflow bucket, unbounded above
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 100.0);
  // A quantile resolved below the overflow bucket still interpolates.
  EXPECT_LE(h.Quantile(0.25), 1.0);
}

TEST(MetricsTest, HistogramTracksExactMax) {
  Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  h.Observe(1.2);
  EXPECT_DOUBLE_EQ(h.max(), 1.2);  // inside the (1, 2] bucket, not its bound
  h.Observe(0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1.2);
  h.Observe(100);  // overflow bucket: still exact
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);

  // A constant histogram reports its value at every quantile, not the
  // bounds of the bucket holding it.
  Histogram constant(MetricsRegistry::DefaultLatencyBounds());
  for (int i = 0; i < 7; ++i) constant.Observe(0.012);
  EXPECT_DOUBLE_EQ(constant.min(), 0.012);
  EXPECT_DOUBLE_EQ(constant.max(), 0.012);
  EXPECT_DOUBLE_EQ(constant.Quantile(0.5), 0.012);
  EXPECT_DOUBLE_EQ(constant.Quantile(0.95), 0.012);
}

TEST(MetricsTest, GaugeSnapshotEmitsNullExtremesWhenNeverSet) {
  MetricsRegistry reg;
  reg.gauge("never.set");
  reg.gauge("set.to.zero").Set(0);
  auto parsed = JsonValue::Parse(reg.SnapshotJson().Dump());
  ASSERT_TRUE(parsed.ok());
  // Never-set: min/max are null, so "absent" and "genuinely 0" differ.
  EXPECT_TRUE((*parsed)["gauges"]["never.set"]["min"].is_null());
  EXPECT_TRUE((*parsed)["gauges"]["never.set"]["max"].is_null());
  // Set-to-zero: real numeric extremes.
  EXPECT_TRUE((*parsed)["gauges"]["set.to.zero"]["min"].is_number());
  EXPECT_EQ((*parsed)["gauges"]["set.to.zero"]["max"].as_number(), 0);
}

TEST(MetricsTest, SnapshotJsonRoundTrips) {
  MetricsRegistry reg;
  reg.counter("orderer.blocks_cut_total").Increment(3);
  reg.gauge("endorser.queue_depth").Set(0.25);
  reg.histogram("orderer.block_fill_ratio", MetricsRegistry::RatioBounds())
      .Observe(0.5);

  auto parsed = JsonValue::Parse(reg.SnapshotJson().Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)["counters"]["orderer.blocks_cut_total"].as_number(), 3);
  EXPECT_EQ((*parsed)["gauges"]["endorser.queue_depth"]["value"].as_number(),
            0.25);
  const JsonValue& hist = (*parsed)["histograms"]["orderer.block_fill_ratio"];
  EXPECT_EQ(hist["count"].as_number(), 1);
  EXPECT_EQ(hist["buckets"].as_array().size(),
            hist["bounds"].as_array().size() + 1);
}

TEST(MetricsTest, EmptyRegistry) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  auto parsed = JsonValue::Parse(reg.SnapshotJson().Dump());
  ASSERT_TRUE(parsed.ok());
  reg.counter("c");
  EXPECT_FALSE(reg.empty());
}

// ---------------------------------------------------------------------------
// Stage breakdown
// ---------------------------------------------------------------------------

TEST(StageBreakdownTest, GroupsByCategoryInPipelineOrder) {
  MetricsRegistry reg;
  // Registered out of pipeline order; histograms that are not stage
  // histograms are ignored.
  reg.histogram(StageHistogramName(critical_stage::kCommit)).Observe(2.0);
  reg.histogram(StageHistogramName(critical_stage::kSubmit)).Observe(0.001);
  reg.histogram(StageHistogramName(critical_stage::kSubmit)).Observe(0.003);
  reg.histogram("orderer.block_fill_ratio", MetricsRegistry::RatioBounds())
      .Observe(0.5);

  auto rows = ComputeStageBreakdown(reg);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].stage, "submit");  // pipeline order, not alphabetical
  EXPECT_EQ(rows[1].stage, "commit");
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_DOUBLE_EQ(rows[0].mean_s, 0.002);
  // max_s is the exact largest observation, not a bucket bound, and the
  // bucket-interpolated quantiles never exceed it.
  EXPECT_DOUBLE_EQ(rows[0].max_s, 0.003);
  EXPECT_DOUBLE_EQ(rows[1].max_s, 2.0);
  EXPECT_LE(rows[0].p50_s, rows[0].p95_s);
  EXPECT_LE(rows[0].p95_s, rows[0].max_s);
  EXPECT_LE(rows[1].p95_s, rows[1].max_s);

  std::string table = FormatStageBreakdownTable(rows);
  EXPECT_NE(table.find("stage"), std::string::npos);
  EXPECT_NE(table.find("submit"), std::string::npos);
  EXPECT_EQ(FormatStageBreakdownTable({}), "");
  EXPECT_TRUE(ComputeStageBreakdown(MetricsRegistry{}).empty());
}

// ---------------------------------------------------------------------------
// End-to-end: a traced experiment
// ---------------------------------------------------------------------------

ExperimentConfig SmallExperiment(int num_txs = 300) {
  SyntheticConfig wl;
  wl.num_txs = num_txs;
  ExperimentConfig cfg;
  cfg.network = NetworkConfig::Defaults();
  cfg.chaincodes = {"genchain"};
  for (auto& [k, v] : SyntheticSeedState(wl)) {
    cfg.seeds.push_back(SeedEntry{"genchain", k, v});
  }
  cfg.schedule = GenerateSynthetic(wl);
  return cfg;
}

TEST(TracedExperimentTest, CoversThePipelineStages) {
  ExperimentConfig cfg = SmallExperiment();
  cfg.enable_telemetry = true;
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_NE(out->telemetry, nullptr);

  // Default options run the flight recorder, which observes every
  // committed transaction into all six stage histograms.
  const MetricsRegistry& m = out->telemetry->metrics();
  for (int i = 0; i < kNumCriticalStages; ++i) {
    auto it = m.histograms().find(StageHistogramName(i));
    ASSERT_NE(it, m.histograms().end()) << CriticalStageName(i);
    EXPECT_EQ(it->second.count(), out->report.total_committed())
        << CriticalStageName(i);
  }
  EXPECT_GT(out->report.total_committed(), 0u);
}

TEST(TracedExperimentTest, StageHistogramsEqualTheCriticalPathSums) {
  ExperimentConfig cfg = SmallExperiment(500);
  cfg.enable_telemetry = true;
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  const TxTraceSummary& s = out->telemetry->txtrace()->summary();
  const MetricsRegistry& m = out->telemetry->metrics();
  for (int i = 0; i < kNumCriticalStages; ++i) {
    const Histogram& h = m.histograms().at(StageHistogramName(i));
    // The same values, summed in the same order: exact equality.
    EXPECT_EQ(h.count(), s.stages[i].count) << CriticalStageName(i);
    EXPECT_EQ(h.sum(), s.stages[i].span_s) << CriticalStageName(i);
  }
}

TEST(TracedExperimentTest, ExemplarLatencyMatchesLedgerLatencyExactly) {
  ExperimentConfig cfg = SmallExperiment();
  cfg.enable_telemetry = true;
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();

  std::map<uint64_t, double> ledger_latency;
  out->ledger.ForEachTransaction([&](const Block&, const Transaction& tx) {
    if (tx.is_config) return;
    ledger_latency[tx.tx_id] = tx.commit_timestamp - tx.client_timestamp;
  });
  size_t checked = 0;
  for (const TxTraceWindow& w :
       out->telemetry->txtrace()->summary().windows) {
    for (const TxTraceExemplar& ex : w.exemplars) {
      auto it = ledger_latency.find(ex.tx_id);
      ASSERT_NE(it, ledger_latency.end()) << "tx " << ex.tx_id;
      // The recorder reuses the exact timestamps the ledger records, so
      // this must hold with exact double equality, not just approximately.
      EXPECT_EQ(ex.latency_s, it->second) << "tx " << ex.tx_id;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(TracedExperimentTest, StageBreakdownAttachedToReport) {
  ExperimentConfig cfg = SmallExperiment();
  cfg.enable_telemetry = true;
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  const BottleneckReport report =
      ComputeBottleneckReport(*out->telemetry, out->sim_end_time);
  ASSERT_EQ(report.stages.size(), static_cast<size_t>(kNumCriticalStages));
  for (int i = 0; i < kNumCriticalStages; ++i) {
    EXPECT_EQ(report.stages[i].stage, CriticalStageName(i));
  }
  EXPECT_NE(FormatStageBreakdownTable(report.stages).find("endorse"),
            std::string::npos);
}

/// A counter's published value; 0 when the registry does not list it.
uint64_t PublishedCount(const MetricsRegistry& m, const std::string& name) {
  auto it = m.counters().find(name);
  return it == m.counters().end() ? 0 : it->second.value();
}

TEST(TracedExperimentTest, ComponentMetricsArePopulated) {
  ExperimentConfig cfg = SmallExperiment();
  cfg.enable_telemetry = true;
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();

  // Every counter equals a count kept independently of the registry.
  const MetricsRegistry& m = out->telemetry->metrics();
  const PerformanceReport& r = out->report;
  EXPECT_EQ(PublishedCount(m, "ledger.txs_committed_total"),
            r.total_committed());
  EXPECT_EQ(PublishedCount(m, "validator.valid_total"), r.successful());
  EXPECT_EQ(PublishedCount(m, "validator.mvcc_conflicts"), r.mvcc_failures());
  EXPECT_EQ(PublishedCount(m, "validator.phantom_conflicts"),
            r.phantom_failures());
  EXPECT_EQ(PublishedCount(m, "validator.endorsement_failures"),
            r.endorsement_failures());
  EXPECT_EQ(PublishedCount(m, "client.early_aborts_total"), r.early_aborts());
  EXPECT_EQ(PublishedCount(m, "client.requests_total"), cfg.schedule.size());

  // The genesis block is the ledger's, not the commit path's.
  const uint64_t blocks = out->ledger.blocks().size() - 1;
  ASSERT_GT(blocks, 0u);
  EXPECT_EQ(PublishedCount(m, "ledger.blocks_total"), blocks);
  EXPECT_EQ(PublishedCount(m, "validator.blocks_validated_total"), blocks);

  uint64_t endorsements = 0;
  for (const auto& [org, n] : out->endorsement_counts) endorsements += n;
  EXPECT_EQ(PublishedCount(m, "endorser.proposals_total"), endorsements);

  const uint64_t cut = PublishedCount(m, "orderer.blocks_cut_total");
  EXPECT_EQ(cut, blocks);
  EXPECT_EQ(cut, PublishedCount(m, "raft.commits_total"));
  EXPECT_EQ(cut, PublishedCount(m, "raft.proposals_total"));
  EXPECT_EQ(m.histograms().at("orderer.block_fill_ratio").count(), cut);

  auto parsed = JsonValue::Parse(m.SnapshotJson().Dump());
  ASSERT_TRUE(parsed.ok());
}

TEST(TracedExperimentTest, TelemetryDoesNotPerturbTheSimulation) {
  ExperimentConfig cfg = SmallExperiment();
  auto off = RunExperiment(cfg);
  cfg.enable_telemetry = true;
  auto on = RunExperiment(cfg);
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(on.ok());
  // The traced run must be byte-identical in outcome: telemetry only
  // observes — the sampler's tick events read state but never change
  // component behavior or timing.
  EXPECT_EQ(off->report.Summary(), on->report.Summary());
  EXPECT_EQ(off->ledger.NumBlocks(), on->ledger.NumBlocks());
  EXPECT_DOUBLE_EQ(off->sim_end_time, on->sim_end_time);
  EXPECT_EQ(off->telemetry, nullptr);
}

TEST(TracedExperimentTest, NoSpanLeftOpenAtTheEnd) {
  ExperimentConfig cfg = SmallExperiment();
  cfg.enable_telemetry = true;
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  // The whole run fits in the ring: every submitted transaction's chain
  // ends in a commit or an early abort.
  const TxTraceRecorder& rec = *out->telemetry->txtrace();
  ASSERT_EQ(rec.events_evicted(), 0u);
  uint64_t submits = 0, terminals = 0;
  rec.ForEachRetained([&](uint64_t, const TxTraceEvent& ev) {
    if (ev.stage == TxStage::kSubmit) ++submits;
    if (ev.stage == TxStage::kCommit || ev.stage == TxStage::kEarlyAbort) {
      ++terminals;
    }
  });
  EXPECT_EQ(submits, cfg.schedule.size());
  EXPECT_EQ(terminals, submits);
  EXPECT_EQ(rec.summary().committed + rec.summary().aborted, submits);
}

}  // namespace
}  // namespace blockoptr
