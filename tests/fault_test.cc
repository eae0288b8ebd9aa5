#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "driver/experiment.h"
#include "driver/faults.h"
#include "driver/presets.h"
#include "driver/robustness.h"
#include "telemetry/bottleneck.h"
#include "workload/spec.h"
#include "workload/synthetic.h"

namespace blockoptr {
namespace {

// ---------------------------------------------------------------------------
// ParseFaultPlan
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, ParsesPresetWithDefaults) {
  auto plan = ParseFaultPlan("leader-crash");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->events.size(), 1u);
  EXPECT_EQ(plan->events[0].kind, FaultKind::kLeaderCrash);
  EXPECT_DOUBLE_EQ(plan->events[0].at, 5.0);
  EXPECT_DOUBLE_EQ(plan->events[0].duration, 10.0);
}

TEST(FaultPlanTest, OverridesPresetParameters) {
  auto plan = ParseFaultPlan("endorser-slow@t=2.5,org=3,factor=16,dur=7");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->events.size(), 1u);
  const FaultEvent& e = plan->events[0];
  EXPECT_EQ(e.kind, FaultKind::kEndorserSlow);
  EXPECT_DOUBLE_EQ(e.at, 2.5);
  EXPECT_EQ(e.org, 3);
  EXPECT_DOUBLE_EQ(e.factor, 16.0);
  EXPECT_DOUBLE_EQ(e.duration, 7.0);
}

TEST(FaultPlanTest, ParsesMultipleEventsSortedByOnset) {
  auto plan = ParseFaultPlan("burst@t=30,dur=5;leader-crash@t=10,dur=5");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->events.size(), 2u);
  EXPECT_EQ(plan->events[0].kind, FaultKind::kLeaderCrash);
  EXPECT_EQ(plan->events[1].kind, FaultKind::kBurst);
  EXPECT_LE(plan->events[0].at, plan->events[1].at);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseFaultPlan("").ok());
  EXPECT_FALSE(ParseFaultPlan("warp-core-breach").ok());
  EXPECT_FALSE(ParseFaultPlan("leader-crash@t").ok());
  EXPECT_FALSE(ParseFaultPlan("leader-crash@t=abc").ok());
  EXPECT_FALSE(ParseFaultPlan("leader-crash@warp=9").ok());
  EXPECT_FALSE(ParseFaultPlan("leader-crash@t=-1").ok());
  EXPECT_FALSE(ParseFaultPlan("burst@dur=0").ok());
  EXPECT_FALSE(ParseFaultPlan("endorser-slow@factor=0").ok());
  EXPECT_FALSE(ParseFaultPlan("endorser-outage@org=0").ok());
  EXPECT_FALSE(ParseFaultPlan("diurnal@factor=1.5").ok());
}

TEST(FaultPlanTest, RejectsNonFiniteValues) {
  // strtod accepts these spellings; a NaN onset used to pass every range
  // check (NaN < 0 is false) and run as a fault window [nans, nans].
  for (const char* spec :
       {"leader-crash@t=nan", "leader-crash@t=NaN", "leader-crash@t=inf",
        "leader-crash@dur=-inf", "burst@factor=nan", "diurnal@period=inf",
        "endorser-slow@factor=1e400"}) {
    EXPECT_FALSE(ParseFaultPlan(spec).ok()) << spec;
  }
}

TEST(FaultPlanTest, IntegerParametersMustBeIntegralAndInRange) {
  // node=1e30 used to be cast out of int range (undefined behaviour).
  for (const char* spec :
       {"node-crash@node=1e30", "node-crash@node=1.5", "node-crash@node=-3e9",
        "endorser-outage@org=2.5", "endorser-outage@org=1e10",
        "hotkey-shift@offset=0.5", "hotkey-shift@offset=4294967296"}) {
    EXPECT_FALSE(ParseFaultPlan(spec).ok()) << spec;
  }
  auto plan = ParseFaultPlan("node-crash@node=2.0;hotkey-shift@offset=-7");
  ASSERT_TRUE(plan.ok()) << plan.status();
  for (const FaultEvent& e : plan->events) {
    if (e.kind == FaultKind::kNodeCrash) EXPECT_EQ(e.node, 2);
    if (e.kind == FaultKind::kSkewShift) EXPECT_EQ(e.offset, -7);
  }
}

// Property: a truncated or byte-flipped spec either fails to parse or
// yields events that all pass ValidateEvent (finite, in range).
TEST(FaultPlanProperty, MangledSpecsParseToValidPlansOrFail) {
  std::vector<std::string> seeds = {
      "leader-crash@t=10,dur=5",
      "node-crash@t=4,dur=3,node=2",
      "endorser-slow@t=5,org=2,factor=8,dur=20;burst@t=30,dur=5,factor=4",
      "endorser-outage@t=1,org=3,dur=2",
      "diurnal@t=0,factor=0.5,period=20;hotkey-shift@t=3,offset=137"};
  for (const auto& name : FaultPresetNames()) seeds.push_back(name);
  const std::string alphabet = "0123456789.eE+-naifNI,=@;xt \x80";
  Rng rng(77);
  int parsed = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string spec = seeds[rng.NextBelow(seeds.size())];
    if (rng.NextBool(0.5)) {
      spec.resize(rng.NextBelow(spec.size() + 1));
    }
    const int flips = static_cast<int>(rng.NextBelow(3));
    for (int f = 0; f < flips && !spec.empty(); ++f) {
      spec[rng.NextBelow(spec.size())] =
          alphabet[rng.NextBelow(alphabet.size())];
    }
    auto plan = ParseFaultPlan(spec);
    if (!plan.ok()) continue;
    ++parsed;
    for (const FaultEvent& e : plan->events) {
      EXPECT_TRUE(ValidateEvent(e).ok())
          << "'" << spec << "' parsed to " << DescribeFault(e);
    }
  }
  EXPECT_GT(parsed, 100);  // the sweep also exercises the accept path
}

TEST(FaultPlanTest, DescribeRoundTripsThroughParse) {
  auto plan = ParseFaultPlan("node-crash@t=4,dur=3,node=2");
  ASSERT_TRUE(plan.ok());
  auto reparsed = ParseFaultPlan(DescribeFault(plan->events[0]));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->events[0].kind, plan->events[0].kind);
  EXPECT_DOUBLE_EQ(reparsed->events[0].at, plan->events[0].at);
  EXPECT_DOUBLE_EQ(reparsed->events[0].duration, plan->events[0].duration);
  EXPECT_EQ(reparsed->events[0].node, plan->events[0].node);
}

TEST(FaultPlanTest, EveryPresetParses) {
  for (const auto& name : FaultPresetNames()) {
    EXPECT_TRUE(ParseFaultPlan(name).ok()) << name;
  }
}

// ---------------------------------------------------------------------------
// Arrival-process faults (pure schedule transforms)
// ---------------------------------------------------------------------------

Schedule UniformSchedule(size_t n, double rate) {
  Schedule schedule;
  schedule.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ClientRequest req;
    req.send_time = static_cast<double>(i) / rate;
    req.request_id = i + 1;
    req.chaincode = "genchain";
    req.function = "Update";
    schedule.push_back(std::move(req));
  }
  return schedule;
}

TEST(ArrivalFaultTest, BurstPreservesCountAndOrder) {
  Schedule schedule = UniformSchedule(3000, 100);  // 30s of arrivals
  Schedule original = schedule;
  auto plan = ParseFaultPlan("burst@t=5,dur=2,factor=4");
  ASSERT_TRUE(plan.ok());
  ApplyArrivalFaults(schedule, *plan);

  ASSERT_EQ(schedule.size(), original.size());
  for (size_t i = 0; i < schedule.size(); ++i) {
    // Same requests, same relative order (the warp is monotone).
    EXPECT_EQ(schedule[i].request_id, original[i].request_id);
    if (i > 0) {
      EXPECT_LE(schedule[i - 1].send_time, schedule[i].send_time);
    }
  }
}

TEST(ArrivalFaultTest, BurstCompressesTheWindowAndShiftsTheTail) {
  Schedule schedule = UniformSchedule(3000, 100);
  auto plan = ParseFaultPlan("burst@t=5,dur=2,factor=4");
  ASSERT_TRUE(plan.ok());
  ApplyArrivalFaults(schedule, *plan);

  // Arrivals originally in (5, 13) = [t, t + factor*dur) land in (5, 7);
  // everything later moves earlier by (factor-1)*dur = 6s; everything
  // before the onset stays put.
  size_t in_window = 0;
  for (const auto& req : schedule) {
    double orig = static_cast<double>(req.request_id - 1) / 100;
    if (orig <= 5.0) {
      EXPECT_DOUBLE_EQ(req.send_time, orig);
    } else if (orig < 13.0) {
      EXPECT_NEAR(req.send_time, 5.0 + (orig - 5.0) / 4.0, 1e-12);
      ++in_window;
    } else {
      EXPECT_NEAR(req.send_time, orig - 6.0, 1e-12);
    }
  }
  // 8 virtual seconds of arrivals at 100 TPS were compressed to 2s: the
  // in-window rate is 4x while the total count is untouched. (The arrival
  // exactly at the onset is a fixed point, so the open window holds 799.)
  EXPECT_EQ(in_window, 799u);
}

TEST(ArrivalFaultTest, DiurnalPreservesCountAndInvertsAccurately) {
  Schedule schedule = UniformSchedule(2000, 100);
  Schedule original = schedule;
  auto plan = ParseFaultPlan("diurnal@t=0,factor=0.8,period=10");
  ASSERT_TRUE(plan.ok());
  ApplyArrivalFaults(schedule, *plan);

  ASSERT_EQ(schedule.size(), original.size());
  const double amp = 0.8, period = 10.0;
  const double w = 2 * 3.14159265358979323846 / period;
  for (size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(schedule[i].request_id, original[i].request_id);
    if (i > 0) {
      EXPECT_LE(schedule[i - 1].send_time, schedule[i].send_time);
    }
    // The warped time s solves s + amp/w * (1 - cos(w*s)) = original time
    // (unit-rate cumulative intensity); the bisection must hit it tightly.
    double s = schedule[i].send_time;
    double integral = s + amp / w * (1 - std::cos(w * s));
    EXPECT_NEAR(integral, original[i].send_time, 1e-6);
  }
}

TEST(ArrivalFaultTest, DiurnalModulatesInstantaneousRate) {
  // With intensity 1 + 0.8*sin(2*pi*t/20), the first quarter-period packs
  // arrivals more densely than the uniform baseline, the third spreads
  // them out: count the arrivals landing in the first 5 warped seconds.
  Schedule schedule = UniformSchedule(4000, 100);  // 40s = 2 periods
  auto plan = ParseFaultPlan("diurnal@t=0,factor=0.8,period=20");
  ASSERT_TRUE(plan.ok());
  ApplyArrivalFaults(schedule, *plan);
  size_t first_quarter = 0;
  for (const auto& req : schedule) {
    if (req.send_time < 5.0) ++first_quarter;
  }
  // Uniform would put 500 arrivals in [0, 5); the rising sine packs in
  // integral(0..5) of (1+0.8 sin(pi t/10)) dt ~= 7.55s worth ~= 755.
  EXPECT_GT(first_quarter, 700u);
  EXPECT_LT(first_quarter, 810u);
}

TEST(ArrivalFaultTest, SkewShiftRotatesOnlyLateSyntheticKeys) {
  Schedule schedule;
  auto add = [&schedule](double t, std::string fn,
                         std::vector<std::string> args) {
    ClientRequest req;
    req.send_time = t;
    req.request_id = schedule.size() + 1;
    req.chaincode = "genchain";
    req.function = std::move(fn);
    req.args = std::move(args);
    schedule.push_back(std::move(req));
  };
  add(0.0, "Update", {"key000001", "v"});
  add(1.0, "Read", {"key000002"});
  add(2.0, "Update", {"key000003", "v"});   // at the onset: rotated
  add(3.0, "RangeRead", {"key000000", "key000004"});  // ranges untouched
  add(4.0, "Read", {"not-a-key"});

  auto plan = ParseFaultPlan("hotkey-shift@t=2,offset=2");
  ASSERT_TRUE(plan.ok());
  ApplyArrivalFaults(schedule, *plan);

  // Key space = max index + 1 = 5 (from key000004).
  EXPECT_EQ(schedule[0].args[0], "key000001");  // before onset: unchanged
  EXPECT_EQ(schedule[1].args[0], "key000002");
  EXPECT_EQ(schedule[2].args[0], "key000000");  // (3 + 2) % 5
  EXPECT_EQ(schedule[3].args[0], "key000000");  // RangeRead: unchanged
  EXPECT_EQ(schedule[3].args[1], "key000004");
  EXPECT_EQ(schedule[4].args[0], "not-a-key");  // non-synthetic: unchanged
}

// ---------------------------------------------------------------------------
// Runtime faults against a live experiment
// ---------------------------------------------------------------------------

ExperimentConfig SmallExperiment(int txs = 600) {
  SyntheticConfig wl;
  wl.num_txs = txs;
  return MakeSyntheticExperiment(wl, NetworkConfig::Defaults());
}

TEST(FaultInjectionTest, LeaderCrashUnderLoadLosesNoTransactions) {
  ExperimentConfig cfg = SmallExperiment();
  auto plan = ParseFaultPlan("leader-crash@t=0.5,dur=0.5");
  ASSERT_TRUE(plan.ok());
  cfg.faults = *plan;

  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Every scheduled transaction is accounted for: the crash delays
  // ordering (pending payloads survive the failover) but drops nothing.
  EXPECT_EQ(out->report.total_committed() + out->report.early_aborts(),
            cfg.schedule.size());
  EXPECT_GT(out->report.successful(), 0u);
  // The window was resolved against the acting leader at fire time.
  ASSERT_EQ(out->fault_windows.size(), 1u);
  EXPECT_TRUE(out->fault_windows[0].name.rfind("leader-crash(node", 0) == 0)
      << out->fault_windows[0].name;
  EXPECT_DOUBLE_EQ(out->fault_windows[0].start, 0.5);
  EXPECT_DOUBLE_EQ(out->fault_windows[0].end, 1.0);
}

TEST(FaultInjectionTest, EndorserOutageIsAttributedNotDropped) {
  ExperimentConfig cfg = SmallExperiment();
  cfg.enable_telemetry = true;
  auto plan = ParseFaultPlan("endorser-outage@t=0.5,org=2");
  ASSERT_TRUE(plan.ok());
  cfg.faults = *plan;

  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Under P3 = OutOf(2, Org1, Org2), losing Org2 starves transactions of
  // their second signature: they must surface as endorsement-policy
  // failures (or early aborts), never as silently missing transactions.
  EXPECT_EQ(out->report.total_committed() + out->report.early_aborts(),
            cfg.schedule.size());
  EXPECT_GT(out->report.endorsement_failures(), 0u);

  // Bottleneck attribution names the active fault as the verdict.
  BottleneckReport report = ComputeBottleneckReport(
      *out->telemetry, out->sim_end_time, &out->fault_windows);
  EXPECT_EQ(report.active_fault, "endorser-outage(Org2)");
  EXPECT_NE(report.summary.find("endorser-outage(Org2)"), std::string::npos)
      << report.summary;
}

TEST(FaultInjectionTest, StreamingRecommenderFlipsAdviceUnderFault) {
  // The online recommender must react to a mid-run fault: a severe
  // endorser slowdown reshapes the latency profile, so the
  // sliding-window evaluation has to churn (appeared AND withdrawn
  // events after the onset) and end up recommending a different set of
  // types than the healthy run.
  ExperimentConfig cfg = SmallExperiment(1200);
  cfg.stream.enabled = true;
  cfg.stream.window_s = 0.5;

  auto healthy = RunExperiment(cfg);
  ASSERT_TRUE(healthy.ok());
  ASSERT_NE(healthy->stream, nullptr);

  constexpr double kOnset = 1.0;
  auto plan = ParseFaultPlan("endorser-slow@t=1,org=2,factor=32,dur=0");
  ASSERT_TRUE(plan.ok());
  cfg.faults = *plan;
  auto faulted = RunExperiment(cfg);
  ASSERT_TRUE(faulted.ok());
  ASSERT_NE(faulted->stream, nullptr);
  EXPECT_GT(faulted->stream->evaluations(), 0u);

  bool appeared_after_onset = false;
  bool withdrawn_after_onset = false;
  const size_t num_types =
      static_cast<size_t>(RecommendationType::kClientResourceBoost) + 1;
  std::vector<bool> healthy_fired(num_types, false);
  std::vector<bool> faulted_fired(num_types, false);
  for (const auto& ev : healthy->stream->recommender().events()) {
    healthy_fired[static_cast<size_t>(ev.recommendation.type)] = true;
  }
  for (const auto& ev : faulted->stream->recommender().events()) {
    faulted_fired[static_cast<size_t>(ev.recommendation.type)] = true;
    if (ev.sim_time < kOnset) continue;
    if (ev.kind == RecommendationEventKind::kAppeared) {
      appeared_after_onset = true;
    }
    if (ev.kind == RecommendationEventKind::kWithdrawn) {
      withdrawn_after_onset = true;
    }
  }
  EXPECT_TRUE(appeared_after_onset);
  EXPECT_TRUE(withdrawn_after_onset);
  // The fault flips advice: at least one recommendation type fires in
  // exactly one of the two runs.
  EXPECT_NE(healthy_fired, faulted_fired);
}

TEST(FaultInjectionTest, EndorserSlowdownDegradesThroughput) {
  ExperimentConfig cfg = SmallExperiment();
  auto healthy = RunExperiment(cfg);
  ASSERT_TRUE(healthy.ok());

  auto plan = ParseFaultPlan("endorser-slow@t=0,org=2,factor=32,dur=0");
  ASSERT_TRUE(plan.ok());
  cfg.faults = *plan;
  auto faulted = RunExperiment(cfg);
  ASSERT_TRUE(faulted.ok());

  EXPECT_EQ(faulted->report.total_committed() +
                faulted->report.early_aborts(),
            cfg.schedule.size());
  EXPECT_LT(faulted->report.Throughput(), healthy->report.Throughput());
}

TEST(FaultInjectionTest, FaultedRunsAreDeterministic) {
  ExperimentConfig cfg = SmallExperiment();
  auto plan = ParseFaultPlan(
      "leader-crash@t=0.5,dur=0.5;endorser-slow@t=1,org=2,factor=8,dur=1");
  ASSERT_TRUE(plan.ok());
  cfg.faults = *plan;

  auto a = RunExperiment(cfg);
  auto b = RunExperiment(cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->report.Summary(), b->report.Summary());
  EXPECT_EQ(a->events_processed, b->events_processed);
  EXPECT_DOUBLE_EQ(a->sim_end_time, b->sim_end_time);
  ASSERT_EQ(a->fault_windows.size(), b->fault_windows.size());
  for (size_t i = 0; i < a->fault_windows.size(); ++i) {
    EXPECT_EQ(a->fault_windows[i].name, b->fault_windows[i].name);
    EXPECT_DOUBLE_EQ(a->fault_windows[i].start, b->fault_windows[i].start);
    EXPECT_DOUBLE_EQ(a->fault_windows[i].end, b->fault_windows[i].end);
  }
  EXPECT_EQ(a->ledger.blocks().size(), b->ledger.blocks().size());
}

// ---------------------------------------------------------------------------
// Robustness harness
// ---------------------------------------------------------------------------

TEST(RobustnessTest, EvaluatesEveryScenarioAgainstTheHealthyBaseline) {
  ExperimentConfig base = SmallExperiment(400);
  const double horizon = 400 / 300.0;
  auto scenarios = StandardFaultScenarios(horizon);
  ASSERT_GE(scenarios.size(), 3u);

  auto results =
      EvaluateRobustness(base, scenarios, RecommenderOptions{}, /*jobs=*/2);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), scenarios.size());
  for (const auto& r : *results) {
    // One verdict per recommendation type, every run fully accounted.
    EXPECT_EQ(r.verdicts.size(), 9u);
    EXPECT_EQ(r.healthy.total_committed() + r.healthy.early_aborts(),
              base.schedule.size());
    EXPECT_EQ(r.faulted.total_committed() + r.faulted.early_aborts(),
              base.schedule.size());
  }
  std::string matrix = FormatRobustnessMatrix("test workload", *results);
  EXPECT_NE(matrix.find("leader-crash"), std::string::npos);
  EXPECT_NE(matrix.find("recommendation"), std::string::npos);
}

TEST(RobustnessTest, RejectsFaultedBaseline) {
  ExperimentConfig base = SmallExperiment(100);
  auto plan = ParseFaultPlan("burst@t=1,dur=0.2");
  ASSERT_TRUE(plan.ok());
  base.faults = *plan;
  auto results = EvaluateRobustness(base, StandardFaultScenarios(1),
                                    RecommenderOptions{}, 1);
  EXPECT_FALSE(results.ok());
}

}  // namespace
}  // namespace blockoptr
