// End-to-end simulation-engine benchmarks.
//
// Three layers:
//
//   1. BM_EventCore_Pooled — the event core alone: the 4-ary-heap /
//      InlineCallback-slot-pool Simulator driven move-clean (thin
//      by-reference arrivals, payload moved through assembly, one shared
//      commit payload) over a seven-events-per-transaction pipeline shape
//      — arrival → endorse ×3 → order → commit fan-out ×2 — on a pre-built
//      schedule. items/sec = events/sec.
//
//   2. BM_E2E_Experiment — the full pipeline (endorse → order → validate →
//      commit via RunExperiment) on the paper's synthetic workload at
//      three scales. items/sec = committed transactions/sec, so
//      ns/tx = 1e9 / items_per_second.
//
//   3. BM_E2E_ShardedExperiment — the channels × sim-threads matrix.
//
// `--json-out=PATH` dumps the suite as a BENCH_e2e.json trajectory point
// (schema blockoptr-bench-v1); main() additionally prints an interleaved
// single-channel vs 4-channel A/B with the committed-tx/s ratio.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "sim/simulator.h"

namespace blockoptr {
namespace {

// ---------------------------------------------------------------------------
// Pipeline-shaped synthetic workload
// ---------------------------------------------------------------------------

/// Stand-in for what real pipeline closures carry: a request/transaction
/// worth of bytes. Big enough that std::function's ~16-byte inline buffer
/// never holds it — exactly the situation on the real hot path.
struct TxPayload {
  uint64_t id = 0;
  double send_time = 0;
  unsigned char body[240] = {};
};

std::vector<TxPayload> MakePipelineSchedule(int num_txs) {
  std::vector<TxPayload> schedule(static_cast<size_t>(num_txs));
  for (int i = 0; i < num_txs; ++i) {
    schedule[i].id = static_cast<uint64_t>(i);
    schedule[i].send_time = static_cast<double>(i) * 0.001;
  }
  return schedule;
}

/// The shipping pipeline: thin by-reference arrivals (the
/// schedule outlives the run, as in driver/experiment.cc), the payload
/// rides the pipeline by value only where it genuinely transfers
/// (endorsement results, assembly), and the commit fan-out shares one
/// immutable payload between the delivering orgs' thin events.
void RunPooledPipeline(Simulator& eng,
                       const std::vector<TxPayload>& schedule,
                       uint64_t& sink) {
  eng.Reserve(schedule.size() + 64);
  for (const TxPayload& req : schedule) {
    eng.ScheduleAt(req.send_time, [&eng, &sink, &req] {
      const TxPayload& p = req;
      for (int org = 0; org < 3; ++org) {
        const double endorse_done = 0.0005 * (org + 1);
        if (org < 2) {
          eng.ScheduleAfter(endorse_done, [&sink, p] { sink += p.id; });
        } else {
          eng.ScheduleAfter(endorse_done, [&eng, &sink, p] {
            sink += p.id;
            eng.ScheduleAfter(0.0002, [&eng, &sink, p]() mutable {
              sink += p.id;
              // Commit fan-out: one shared immutable payload, moved out
              // of the ordering event, referenced by both thin delivery
              // events (the real pipeline amortizes this allocation over
              // a whole block's fan-out).
              auto committed =
                  std::make_shared<const TxPayload>(std::move(p));
              for (int dest = 0; dest < 2; ++dest) {
                eng.ScheduleAfter(0.0001, [&sink, committed] {
                  sink += committed->id;
                });
              }
            });
          });
        }
      }
    });
  }
  eng.Run();
}

void BM_EventCore_Pooled(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<TxPayload> schedule = MakePipelineSchedule(n);
  uint64_t events = 0;
  uint64_t sink = 0;
  for (auto _ : state) {
    Simulator eng;
    RunPooledPipeline(eng, schedule, sink);
    events += eng.num_processed();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_EventCore_Pooled)->Arg(1000)->Arg(10000)->Arg(100000);

/// One untimed run at the largest scale before any bench. glibc hands freed
/// memory above its trim threshold back to the OS and raises that threshold
/// only after a large block is freed, so in a cold process every iteration
/// of the small-scale benches would re-fault the event pools. Warming the
/// allocator first times the steady-state core.
void WarmAllocator() {
  const std::vector<TxPayload> schedule = MakePipelineSchedule(100000);
  uint64_t sink = 0;
  Simulator eng;
  RunPooledPipeline(eng, schedule, sink);
  benchmark::DoNotOptimize(sink);
}

// ---------------------------------------------------------------------------
// Full pipeline: RunExperiment on the paper's synthetic workload
// ---------------------------------------------------------------------------

void BM_E2E_Experiment(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  SyntheticConfig wl;
  wl.num_txs = n;
  ExperimentConfig cfg =
      MakeSyntheticExperiment(wl, NetworkConfig::Defaults());
  uint64_t events = 0;
  uint64_t runs = 0;
  for (auto _ : state) {
    auto out = RunExperiment(cfg);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    events += out->events_processed;
    ++runs;
    benchmark::DoNotOptimize(out->report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
  state.counters["events_per_run"] =
      benchmark::Counter(static_cast<double>(events / (runs ? runs : 1)));
}
BENCHMARK(BM_E2E_Experiment)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Multi-channel sharded runs: the channels × sim-threads scaling matrix
// ---------------------------------------------------------------------------

void BM_E2E_ShardedExperiment(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int channels = static_cast<int>(state.range(1));
  const int threads = static_cast<int>(state.range(2));
  SyntheticConfig wl;
  wl.num_txs = n;
  ExperimentConfig cfg =
      MakeSyntheticExperiment(wl, NetworkConfig::Defaults());
  cfg.channels = channels;
  cfg.sim_threads = threads;
  uint64_t events = 0;
  uint64_t runs = 0;
  for (auto _ : state) {
    auto out = RunExperiment(cfg);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    events += out->events_processed;
    ++runs;
    benchmark::DoNotOptimize(out->report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
  state.counters["events_per_run"] =
      benchmark::Counter(static_cast<double>(events / (runs ? runs : 1)));
}
// Arg triple: {txs, channels, sim-threads}. The {100k, 1, 1} row is the
// single-channel reference the >=1.5x whole-experiment scaling target is
// measured against (it needs >= sim-threads free cores to show — on a
// 1-core runner the lockstep barrier serializes the channels); the
// 1M-tx 8-channel row is the large-run completion check. UseRealTime
// makes items/sec wall-clock (the honest scaling number) and
// MeasureProcessCPUTime makes the CPU column sum the worker threads
// instead of reporting the main thread blocked on the barrier.
BENCHMARK(BM_E2E_ShardedExperiment)
    ->Args({100000, 1, 1})
    ->Args({100000, 4, 1})
    ->Args({100000, 4, 2})
    ->Args({100000, 4, 4})
    ->Args({100000, 8, 8})
    ->Args({1000000, 8, 8})
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Interleaved single-channel vs sharded A/B
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Alternates single-channel and 4-channel/4-thread whole experiments and
/// compares median committed-tx/s against the >=1.5x sharding target.
void PrintShardedAB(int num_txs, int rounds) {
  SyntheticConfig wl;
  wl.num_txs = num_txs;
  ExperimentConfig single =
      MakeSyntheticExperiment(wl, NetworkConfig::Defaults());
  ExperimentConfig sharded = single;
  sharded.channels = 4;
  sharded.sim_threads = 4;
  auto measure = [&](const ExperimentConfig& cfg) {
    const auto start = std::chrono::steady_clock::now();
    auto out = RunExperiment(cfg);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (!out.ok()) return 0.0;
    return static_cast<double>(out->report.total_committed()) /
           elapsed.count();
  };
  std::vector<double> a, b;
  for (int r = 0; r < rounds; ++r) {
    a.push_back(measure(single));
    b.push_back(measure(sharded));
  }
  std::printf("sharded A/B at %d txs (%d rounds, median): 1ch %.0fk tx/s, "
              "4ch/4thr %.0fk tx/s -> %.2fx\n",
              num_txs, rounds, Median(a) / 1e3, Median(b) / 1e3,
              Median(b) / Median(a));
}

}  // namespace
}  // namespace blockoptr

int main(int argc, char** argv) {
  std::string json_out = blockoptr::bench::ParseJsonOutFlag(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  blockoptr::bench::JsonTrajectoryReporter reporter;
  blockoptr::WarmAllocator();
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_out.empty()) reporter.WriteJson(json_out, "e2e");
  blockoptr::PrintShardedAB(/*num_txs=*/100000, /*rounds=*/5);
  benchmark::Shutdown();
  return 0;
}
