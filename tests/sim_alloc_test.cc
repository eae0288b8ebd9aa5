// Allocation accounting for the event core. The headline acceptance
// criterion of the engine overhaul is that steady-state scheduling is
// allocation-free: once the event heap and the callback slot pool have
// grown to a run's high-water mark, schedule/fire cycles must not touch
// the heap at all. The same counter gates the post-run path: handing the
// ledger over, the batch metrics fold, and endorsement-time range reads.
//
// The global operator new/delete are replaced with counting versions.
// This binary is dedicated to allocation tests so the hook cannot
// interfere with the rest of the suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "blockopt/log/preprocess.h"
#include "blockopt/metrics/metrics.h"
#include "chaincode/tx_context.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "driver/channel_run.h"
#include "driver/experiment.h"
#include "driver/presets.h"
#include "sim/service_station.h"
#include "sim/simulator.h"
#include "telemetry/sampler.h"
#include "telemetry/telemetry.h"
#include "telemetry/txtrace.h"
#include "workload/synthetic.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded != 0 ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace blockoptr {
namespace {

std::uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Self-rescheduling event: each firing schedules its successor through
/// ScheduleAfter until `remaining` hits zero — the workload shape of
/// timers, retries, and station completions.
struct ChurnEvent {
  Simulator* sim;
  int* remaining;
  void operator()() const {
    if (--*remaining > 0) {
      sim->ScheduleAfter(0.5, ChurnEvent{sim, remaining});
    }
  }
};

/// A burst of concurrent events (exercises heap and slot-pool breadth)
/// plus a long self-rescheduling chain (exercises slot recycling), run to
/// completion.
void RunChurn(Simulator& sim, int chain_events, int burst) {
  for (int i = 0; i < burst; ++i) {
    sim.ScheduleAfter(0.25 * (i % 7), [] {});
  }
  int remaining = chain_events;
  sim.ScheduleAfter(0.0, ChurnEvent{&sim, &remaining});
  sim.Run();
}

TEST(SimAllocTest, SteadyStateSchedulingIsAllocationFree) {
  Simulator sim;
  RunChurn(sim, 1000, 64);  // warm-up: grows the heap and the slot pool
  const std::uint64_t before = AllocationCount();
  RunChurn(sim, 1000, 64);  // identical churn on the warm engine
  const std::uint64_t delta = AllocationCount() - before;
  EXPECT_EQ(delta, 0u);
}

TEST(SimAllocTest, ReservedColdStartIsAllocationFree) {
  Simulator sim;
  sim.Reserve(512);
  const std::uint64_t before = AllocationCount();
  RunChurn(sim, 1000, 256);  // peak pending = 257 <= 512 reserved
  const std::uint64_t delta = AllocationCount() - before;
  EXPECT_EQ(delta, 0u);
}

TEST(SimAllocTest, WarmServiceStationSubmitIsAllocationFree) {
  Simulator sim;
  ServiceStation station(&sim, "station", 2);
  std::uint64_t done = 0;
  auto churn = [&sim, &station, &done] {
    for (int i = 0; i < 256; ++i) {
      station.Submit(0.25, [&done] { ++done; });
    }
    sim.Run();
  };
  churn();  // warm-up: grows the station's parked-job pool
  const std::uint64_t before = AllocationCount();
  churn();
  const std::uint64_t delta = AllocationCount() - before;
  EXPECT_EQ(delta, 0u);
  EXPECT_EQ(done, 512u);
}

TEST(SimAllocTest, DisabledSamplerSchedulesNothingAndAllocatesNothing) {
  Simulator sim;
  ServiceStation station(&sim, "station", 1);
  Sampler sampler(&sim, SamplerConfig{0.0, 64});  // period 0 = disabled
  std::uint64_t count = 0;
  // Registration is a no-op when disabled: no sources, no series.
  sampler.AddRate("pipeline.commit_tps", [&count] { return count; });
  sampler.AddGauge("depth", [] { return 1.0; });
  sampler.AddStation("station", "endorse", &station);
  RunChurn(sim, 1000, 64);  // warm-up
  const std::uint64_t before = AllocationCount();
  sampler.Start();
  EXPECT_EQ(sim.num_pending(), 0u);  // no tick event was scheduled
  RunChurn(sim, 1000, 64);
  EXPECT_EQ(sampler.ticks(), 0u);
  EXPECT_TRUE(sampler.series().empty());
  EXPECT_TRUE(sampler.stations().empty());
  // The telemetry-off path does zero telemetry work and zero allocation.
  EXPECT_EQ(AllocationCount() - before, 0u);
}

/// One full committed lifecycle driven straight into the flight recorder,
/// with the clock advanced via RunUntil (empty queue: RunUntil just moves
/// Now(), so no event-slot churn mixes into the measurement). One block
/// per transaction keeps the chain shape constant across batches.
void RecordLifecycle(Simulator& sim, TxTraceRecorder& rec, std::uint64_t id,
                     double base) {
  const auto payload = static_cast<std::uint32_t>(id);
  sim.RunUntil(base);
  rec.TxEvent(id, TxStage::kSubmit, 0);
  sim.RunUntil(base + 0.01);
  rec.TxEvent(id, TxStage::kProposalDone, 0, 0.01f);
  sim.RunUntil(base + 0.02);
  rec.TxEvent(id, TxStage::kEndorseDone, 1, 0.01f);
  sim.RunUntil(base + 0.03);
  rec.TxEvent(id, TxStage::kCollect, 0);
  sim.RunUntil(base + 0.04);
  rec.TxEvent(id, TxStage::kAssembleDone, 0, 0.01f);
  sim.RunUntil(base + 0.05);
  rec.TxEvent(id, TxStage::kOrdererEnqueue, 0, 0.01f);
  sim.RunUntil(base + 0.06);
  rec.TxEvent(id, TxStage::kBlockCut, 0, 0, payload);
  rec.BlockEvent(payload, TxStage::kRaftPropose, 0);
  sim.RunUntil(base + 0.07);
  rec.BlockEvent(payload, TxStage::kRaftCommit, 0);
  rec.OnBlockDelivered(payload + 1000);
  sim.RunUntil(base + 0.08);
  rec.ValidateEvent(payload + 1000, TxStage::kValidateDone, 0, 0.01f);
  sim.RunUntil(base + 0.09);
  rec.CommitTx(id, base, payload + 1000, false);
}

TEST(TxTraceAllocTest, DisabledRecorderIsAbsentAndTheGuardAllocatesNothing) {
  Simulator sim;
  // Sampler-only: txtrace off. No recorder is ever constructed, and every
  // hook site reduces to the cached-null check exercised here.
  Telemetry telemetry(&sim, TelemetryOptions::SamplerOnly());
  TxTraceRecorder* rec = telemetry.txtrace();
  EXPECT_EQ(rec, nullptr);
  const std::uint64_t before = AllocationCount();
  for (std::uint64_t id = 1; id <= 512; ++id) {
    if (rec != nullptr) RecordLifecycle(sim, *rec, id, id * 0.1);
  }
  EXPECT_EQ(AllocationCount() - before, 0u);
}

TEST(TxTraceAllocTest, EnabledSteadyStateRecordingIsAllocationFree) {
  Simulator sim;
  TxTraceOptions opt;
  opt.enabled = true;
  opt.ring_capacity = 1024;
  opt.window_s = 100.0;
  TxTraceRecorder rec(&sim, opt);
  // Warm-up: a full window's worth of chains grows the ring-adjacent
  // scratch/arena/candidate vectors to their per-window high-water mark...
  for (std::uint64_t id = 1; id <= 64; ++id) {
    RecordLifecycle(sim, rec, id, id * 0.5);
  }
  // ...and one chain past the boundary seals window 1 (sealing copies
  // exemplars — that allocation budget is per window, not per event) and
  // rolls into window 2 with every capacity retained.
  RecordLifecycle(sim, rec, 65, 100.0);
  const std::uint64_t before = AllocationCount();
  // An identical batch strictly inside window 2: appends, chain
  // extraction, and per-commit critical-path accounting on the warm
  // recorder must not touch the heap.
  for (std::uint64_t id = 66; id <= 128; ++id) {
    RecordLifecycle(sim, rec, id, 101.0 + (id - 66) * 0.5);
  }
  EXPECT_EQ(AllocationCount() - before, 0u);
  rec.Finalize(200.0);
  EXPECT_EQ(rec.summary().committed, 128u);
  EXPECT_EQ(rec.summary().truncated_chains, 0u);
}

TEST(ThreadPoolAllocTest, SubmitCostsAtMostThreeAllocationsPerTask) {
  ThreadPool pool(2);
  for (int i = 0; i < 32; ++i) {
    pool.Submit([] { return 0; }).get();  // warm-up (thread-local state)
  }
  constexpr int kTasks = 256;
  const std::uint64_t before = AllocationCount();
  int sum = 0;
  for (int i = 0; i < kTasks; ++i) {
    sum += pool.Submit([i] { return i; }).get();
  }
  const std::uint64_t delta = AllocationCount() - before;
  // Per task: the packaged_task's two internal allocations (task state and
  // result slot) plus one queue node. The old std::function-based queue
  // added an extra make_shared<packaged_task> hop and a heap-allocated
  // function target on top — five per task instead of three.
  EXPECT_LE(delta, 3u * kTasks + 16);
  EXPECT_EQ(sum, kTasks * (kTasks - 1) / 2);
}

// ---------------------------------------------------------------------------
// Post-run cost gates: counts that do not depend on timing noise
// ---------------------------------------------------------------------------

ExperimentConfig SyntheticRun(int num_txs) {
  SyntheticConfig wl;
  wl.num_txs = num_txs;
  return MakeSyntheticExperiment(wl, NetworkConfig::Defaults());
}

/// Allocations made by ChannelRun::Finish() of a completed run.
std::uint64_t FinishAllocations(int num_txs) {
  auto run = ChannelRun::Create(SyntheticRun(num_txs));
  EXPECT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE((*run)->RunToCompletion().ok());
  const std::uint64_t before = AllocationCount();
  ExperimentOutput out = (*run)->Finish();
  const std::uint64_t delta = AllocationCount() - before;
  EXPECT_EQ(out.report.total_committed() + out.report.early_aborts(),
            static_cast<std::uint64_t>(num_txs));
  return delta;
}

TEST(DriverAllocTest, FinishHandsTheLedgerOverInsteadOfCopyingIt) {
  // A ledger copy costs several allocations per transaction; handing it
  // over costs none, so Finish() costs the same at any run length.
  const std::uint64_t small = FinishAllocations(500);
  const std::uint64_t large = FinishAllocations(2000);
  EXPECT_EQ(small, large);
  EXPECT_LE(large, 16u);
}

/// Event-loop allocations (RunToCompletion) per committed transaction of
/// a 2,000-tx run; telemetry is off unless `options` is given.
double LoopAllocationsPerCommittedTx(
    std::optional<TelemetryOptions> options = std::nullopt) {
  ExperimentConfig cfg = SyntheticRun(2000);
  cfg.enable_telemetry = options.has_value();
  if (options) cfg.telemetry_options = *options;
  auto run = ChannelRun::Create(cfg);
  EXPECT_TRUE(run.ok()) << run.status();
  const std::uint64_t before = AllocationCount();
  EXPECT_TRUE((*run)->RunToCompletion().ok());
  const std::uint64_t delta = AllocationCount() - before;
  const ExperimentOutput out = (*run)->Finish();
  EXPECT_GT(out.report.total_committed(), 0u);
  return static_cast<double>(delta) /
         static_cast<double>(out.report.total_committed());
}

TEST(TelemetryAllocTest, DefaultTelemetryLoopStaysUnderTheAllocationBound) {
  // Default options: sampler and flight recorder. The recorder appends
  // into a preallocated ring and the components count events in plain
  // members that reach the registry once, at Finish, so full telemetry
  // adds next to no heap traffic to the event loop. Measured 19.7 against
  // 19.7 with telemetry off; per-event registry lookups by dotted name
  // cost 30.8 (against 21.4, when RW-set items still copied their key
  // strings).
  // The first run of the process also fills the process-wide interners;
  // a warm-up run keeps that out of both measurements.
  (void)LoopAllocationsPerCommittedTx();
  const double off = LoopAllocationsPerCommittedTx();
  const double on = LoopAllocationsPerCommittedTx(TelemetryOptions{});
  EXPECT_LE(on, off + 0.5) << on << " allocations per committed tx with "
                           << "telemetry, " << off << " without";
  // The causal-tracing profile with the recorder switched back off (the
  // `BM_E2E_TxTraceOff` configuration): every hook site is a cached-null
  // check, so it must allocate like no telemetry at all. This is the
  // noise-free companion of that bench's wall-clock ratio.
  TelemetryOptions recorder_off = TelemetryOptions::TxTraceOnly();
  recorder_off.txtrace.enabled = false;
  const double hooks = LoopAllocationsPerCommittedTx(recorder_off);
  EXPECT_LE(hooks, off + 0.5) << hooks << " allocations per committed tx "
                              << "with the recorder disabled, " << off
                              << " without telemetry";
}

/// A log shaped like a synthetic genChain run: two endorsers, reads,
/// updates, blind writes and range reads over a 100-key space, with MVCC
/// and phantom failures.
BlockchainLog SyntheticLog(int rows) {
  auto key = [](std::uint64_t slot) {
    std::string digits = std::to_string(slot);
    return "genchain~key" + std::string(7 - digits.size(), '0') + digits;
  };
  Rng rng(2026);
  std::vector<BlockchainLogEntry> entries(static_cast<std::size_t>(rows));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    BlockchainLogEntry& e = entries[i];
    e.commit_order = i;
    e.client_timestamp = 0.003 * static_cast<double>(i);
    e.commit_timestamp = e.client_timestamp + 0.5;
    e.block_num = i / 100 + 1;
    e.tx_pos = static_cast<std::uint32_t>(i % 100);
    e.chaincode = "genchain";
    e.invoker_org = i % 2 == 0 ? "Org1" : "Org2";
    e.invoker_client = e.invoker_org + "-client" + std::to_string(i % 3);
    e.endorsers = {"Org1", "Org2"};
    const std::uint64_t slot = rng.NextBelow(100);
    switch (rng.NextBelow(4)) {
      case 0:
        e.activity = "Read";
        e.tx_type = TxType::kRead;
        e.read_keys = {key(slot)};
        break;
      case 1:
        e.activity = "Update";
        e.tx_type = TxType::kUpdate;
        e.read_keys = {key(slot)};
        e.writes = {{key(slot), std::to_string(i)}};
        if (rng.NextBool(0.3)) e.status = TxStatus::kMvccReadConflict;
        break;
      case 2:
        e.activity = "Write";
        e.tx_type = TxType::kWrite;
        e.writes = {{key(slot), "v"}};
        break;
      default:
        e.activity = "RangeRead";
        e.tx_type = TxType::kRangeRead;
        e.range_bounds = {{key(slot % 95), key(slot % 95 + 5)}};
        for (std::uint64_t k = slot % 95; k < slot % 95 + 5; ++k) {
          e.read_keys.push_back(key(k));
        }
        if (rng.NextBool(0.2)) e.status = TxStatus::kPhantomReadConflict;
        break;
    }
  }
  return BlockchainLog(std::move(entries));
}

TEST(MetricsAllocTest, ComputeMetricsStaysUnderThreeAllocationsPerRow) {
  const BlockchainLog log = SyntheticLog(2000);
  ComputeMetrics(log);  // warm-up: interns every key and name once
  const std::uint64_t before = AllocationCount();
  const LogMetrics m = ComputeMetrics(log);
  const std::uint64_t delta = AllocationCount() - before;
  EXPECT_EQ(m.total_txs, log.size());
  EXPECT_GT(m.failed_txs, 100u);
  EXPECT_LE(delta, 3 * log.size()) << delta << " allocations for "
                                   << log.size() << " rows";
}

TEST(ChaincodeAllocTest, PointReadsAndWritesCopyNoKeyString) {
  // Namespaced keys longer than 15 characters cannot live in a string's
  // inline buffer. The shim builds each one in a reused buffer, interns
  // it, and records the id, so N reads and N writes of distinct stored
  // keys (short values, which fit inline) cost only the read- and
  // write-vector doublings, not one or two key strings each.
  for (int n : {100, 1000, 4000}) {
    VersionedStore store;
    std::vector<std::string> keys;
    keys.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      keys.push_back("a-point-key-longer-than-sso-" + std::to_string(i));
      store.Apply("cc~" + keys.back(), "v", false,
                  Version{1, static_cast<std::uint32_t>(i)});
    }
    TxContext ctx(&store, "cc");
    const std::uint64_t before = AllocationCount();
    for (const std::string& key : keys) {
      const std::optional<std::string> value = ctx.GetState(key);
      ASSERT_TRUE(value.has_value());
      ctx.PutState(key, "w");
    }
    const std::uint64_t delta = AllocationCount() - before;
    ASSERT_EQ(ctx.rwset().reads.size(), static_cast<std::size_t>(n));
    ASSERT_EQ(ctx.rwset().writes.size(), static_cast<std::size_t>(n));
    std::uint64_t log2n = 0;
    while ((1u << log2n) < static_cast<unsigned>(n)) ++log2n;
    // Two vectors' doublings plus the key buffer's growth.
    EXPECT_LE(delta, 2 * log2n + 8) << "n=" << n;
  }
}

TEST(ChaincodeAllocTest, RangeReadAllocatesOnlyForGrowth) {
  // Keys longer than 15 characters cannot live in a string's inline
  // buffer, so a result that copied its key would cost one allocation
  // each. Results are recorded as (key id, version) and streamed to the
  // visitor, so the count must not grow with the number of results.
  for (int n : {100, 1000, 4000}) {
    VersionedStore store;
    for (int i = 0; i < n; ++i) {
      store.Apply("cc~a-range-key-longer-than-sso-" + std::to_string(i),
                  "v", false, Version{1, static_cast<std::uint32_t>(i)});
    }
    TxContext ctx(&store, "cc");
    std::size_t seen = 0;
    const std::uint64_t before = AllocationCount();
    ctx.GetStateByRange("", "", [&seen](std::string_view, std::string_view) {
      ++seen;
    });
    const std::uint64_t delta = AllocationCount() - before;
    ASSERT_EQ(seen, static_cast<std::size_t>(n));
    ASSERT_EQ(ctx.rwset().range_queries.at(0).results.size(),
              static_cast<std::size_t>(n));
    // Result-vector doublings plus the bounds and the range-query slot.
    std::uint64_t log2n = 0;
    while ((1u << log2n) < static_cast<unsigned>(n)) ++log2n;
    EXPECT_LE(delta, log2n + 8) << "n=" << n;
  }
}

}  // namespace
}  // namespace blockoptr
