#ifndef BLOCKOPTR_BENCH_BENCH_UTIL_H_
#define BLOCKOPTR_BENCH_BENCH_UTIL_H_

// Shared harness for the figure/table reproduction benches. Each bench
// binary prints paper-style rows: baseline vs optimized with relative
// changes, so the *shape* of every figure can be compared against the
// paper (absolute numbers come from the simulator, see DESIGN.md).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/json.h"

#include "blockopt/apply/optimizer.h"
#include "blockopt/log/preprocess.h"
#include "blockopt/metrics/metrics.h"
#include "blockopt/recommend/evidence.h"
#include "blockopt/recommend/recommender.h"
#include "blockopt/recommend/report.h"
#include "telemetry/bottleneck.h"
#include "common/thread_pool.h"
#include "driver/experiment.h"
#include "driver/presets.h"
#include "driver/sweep.h"
#include "workload/lap_log.h"
#include "workload/synthetic.h"
#include "workload/usecase.h"

namespace blockoptr::bench {

/// Parses the shared `--jobs=N` bench flag (0 = all hardware threads);
/// defaults to 1 (serial) so every bench stays byte-reproducible by
/// default and opts into parallelism explicitly. The engine guarantees
/// identical output for every value — see driver/sweep.h.
inline int ParseJobsFlag(int argc, char** argv) {
  int jobs = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      jobs = ThreadPool::ResolveThreads(std::atoi(argv[i] + 7));
    }
  }
  return jobs;
}

/// One finished run plus its BlockOptR analysis.
struct AnalyzedRun {
  PerformanceReport report;
  LogMetrics metrics;
  std::vector<Recommendation> recommendations;
  std::map<std::string, uint64_t> endorsement_counts;
};

inline AnalyzedRun RunAndAnalyze(const ExperimentConfig& cfg) {
  auto out = RunExperiment(cfg);
  if (!out.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 out.status().ToString().c_str());
    std::exit(1);
  }
  AnalyzedRun run;
  run.report = out->report;
  BlockchainLog log = ExtractBlockchainLog(out->ledger);
  run.metrics = ComputeMetrics(log, MetricsOptions{});
  run.recommendations = Recommend(run.metrics, RecommenderOptions{});
  run.endorsement_counts = out->endorsement_counts;
  return run;
}

/// Runs and analyzes every config, distributing the runs (including their
/// log analysis) over `jobs` threads; results come back in input order,
/// field-for-field identical to a serial loop over RunAndAnalyze.
inline std::vector<AnalyzedRun> RunAndAnalyzeAll(
    const std::vector<ExperimentConfig>& configs, int jobs) {
  std::vector<std::function<AnalyzedRun()>> tasks;
  tasks.reserve(configs.size());
  for (const auto& cfg : configs) {
    tasks.emplace_back([&cfg]() { return RunAndAnalyze(cfg); });
  }
  return RunAll<AnalyzedRun>(jobs, std::move(tasks));
}

/// Re-runs `cfg` with only the recommendations of the given types applied
/// (the per-optimization bars of the paper's figures). Types not present
/// among the detected recommendations are ignored.
inline PerformanceReport RunWithOptimizations(
    const ExperimentConfig& cfg, const std::vector<Recommendation>& recs,
    const std::vector<RecommendationType>& only_types) {
  std::vector<Recommendation> selected;
  for (const auto& r : recs) {
    for (auto t : only_types) {
      if (r.type == t) selected.push_back(r);
    }
  }
  auto optimized_cfg = ApplyOptimizations(cfg, selected);
  if (!optimized_cfg.ok()) {
    std::fprintf(stderr, "apply failed: %s\n",
                 optimized_cfg.status().ToString().c_str());
    std::exit(1);
  }
  auto out = RunExperiment(*optimized_cfg);
  if (!out.ok()) {
    std::fprintf(stderr, "optimized run failed: %s\n",
                 out.status().ToString().c_str());
    std::exit(1);
  }
  return out->report;
}

// MakeSyntheticExperiment and the Table 3 experiment set moved into the
// library (driver/presets.h) so the CLI sweep mode and the determinism
// tests share them; they resolve here through the enclosing namespace.

inline void PrintRowHeader() {
  std::printf("%-28s %10s %10s %10s %10s %9s\n", "experiment", "tput(tps)",
              "success", "latency(s)", "mvcc+phm", "endorse");
  std::printf("%-28s %10s %10s %10s %10s %9s\n", "----------", "---------",
              "-------", "----------", "--------", "-------");
}

inline void PrintRow(const std::string& label, const PerformanceReport& r) {
  std::printf("%-28s %10.1f %9.1f%% %10.3f %10llu %9llu\n", label.c_str(),
              r.Throughput(), 100 * r.SuccessRate(), r.AvgLatency(),
              static_cast<unsigned long long>(r.mvcc_failures() +
                                              r.phantom_failures()),
              static_cast<unsigned long long>(r.endorsement_failures()));
}

inline void PrintDelta(const std::string& label,
                       const PerformanceReport& baseline,
                       const PerformanceReport& optimized) {
  std::printf("%-28s %+9.0f%% %+9.0f%% %+9.0f%%   (tput / success / latency "
              "improvement)\n",
              label.c_str(),
              100 * RelativeImprovement(baseline.Throughput(),
                                        optimized.Throughput()),
              100 * RelativeImprovement(baseline.SuccessRate(),
                                        optimized.SuccessRate()),
              100 * RelativeImprovement(baseline.AvgLatency(),
                                        optimized.AvgLatency(),
                                        /*lower_is_better=*/true));
}

/// Re-runs `cfg` with telemetry enabled and prints the per-stage latency
/// breakdown (the flight recorder's critical path), then the
/// continuous-sampler bottleneck attribution (which station saturated, over which evidence
/// window) and the recommendations with their observed evidence attached.
/// Kept separate from the figure-producing runs so those stay on the
/// telemetry-off fast path.
inline void PrintStageBreakdown(const ExperimentConfig& cfg,
                                const std::string& label) {
  ExperimentConfig traced = cfg;
  traced.enable_telemetry = true;
  auto out = RunExperiment(traced);
  if (!out.ok()) {
    std::fprintf(stderr, "traced run failed: %s\n",
                 out.status().ToString().c_str());
    return;
  }
  BottleneckReport bottleneck =
      ComputeBottleneckReport(*out->telemetry, out->sim_end_time);
  std::printf("\n%s — per-stage latency breakdown:\n%s", label.c_str(),
              FormatStageBreakdownTable(bottleneck.stages).c_str());
  std::string table = FormatBottleneckTable(bottleneck);
  if (!table.empty()) {
    std::printf("\n%s — bottleneck attribution:\n%s", label.c_str(),
                table.c_str());
  }
  std::printf("=> %s\n", bottleneck.summary.c_str());

  auto recs = RecommendFromLog(ExtractBlockchainLog(out->ledger),
                               RecommenderOptions{});
  AttachTelemetryEvidence(recs, bottleneck);
  for (const auto& rec : recs) {
    std::printf("  %s: %s\n",
                std::string(RecommendationTypeName(rec.type)).c_str(),
                rec.detail.c_str());
  }
}

/// The paper's default experiment scale.
inline constexpr int kPaperTxCount = 10000;

// ---------------------------------------------------------------------------
// Machine-readable perf trajectory (--json-out)
// ---------------------------------------------------------------------------

/// Extracts (and strips) a `--json-out=PATH` flag so the remaining argv can
/// be handed to benchmark::Initialize untouched. Returns "" when absent.
inline std::string ParseJsonOutFlag(int& argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      path = argv[i] + 11;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return path;
}

/// The current git revision (short hash), or "unknown" outside a checkout.
/// Stamped into BENCH_*.json so perf points are attributable to commits.
inline std::string GitRevision() {
  FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[64] = {0};
  std::string rev;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) rev = buf;
  ::pclose(pipe);
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
    rev.pop_back();
  }
  return rev.empty() ? "unknown" : rev;
}

/// Console reporter that additionally collects every run so the suite can
/// be dumped as a BENCH_<suite>.json trajectory point. Schema (v1):
///   { "schema": "blockoptr-bench-v1", "suite": "<suite>",
///     "git_rev": "<short-hash>", "benchmarks": [
///       { "name": "BM_X/1000", "scale": 1000,
///         "ns_per_op": 123.4, "items_per_second": 8.1e6 }, ... ] }
/// `scale` is the trailing /N benchmark argument (0 when absent);
/// `items_per_second` is 0 for benches that do not SetItemsProcessed.
class JsonTrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations == 0) continue;
      Entry e;
      e.name = run.benchmark_name();
      // Normalize away the measurement-mode suffixes UseRealTime /
      // MeasureProcessCPUTime append, so JSON names (and therefore the
      // perf_compare baseline keys) stay stable across mode changes and
      // the trailing path segment is again the numeric scale argument.
      for (const char* suffix : {"/real_time", "/process_time"}) {
        const size_t len = std::strlen(suffix);
        if (e.name.size() > len &&
            e.name.compare(e.name.size() - len, len, suffix) == 0) {
          e.name.resize(e.name.size() - len);
        }
      }
      auto slash = e.name.rfind('/');
      if (slash != std::string::npos) {
        e.scale = std::strtoll(e.name.c_str() + slash + 1, nullptr, 10);
      }
      e.ns_per_op = run.real_accumulated_time /
                    static_cast<double>(run.iterations) * 1e9;
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) e.items_per_second = it->second;
      entries_.push_back(std::move(e));
    }
  }

  /// Writes the collected runs to `path`; exits non-zero on I/O failure so
  /// CI catches a silently missing artifact.
  void WriteJson(const std::string& path, const std::string& suite) const {
    JsonValue::Array benchmarks;
    for (const Entry& e : entries_) {
      JsonValue::Object o;
      o["name"] = e.name;
      o["scale"] = static_cast<int64_t>(e.scale);
      o["ns_per_op"] = e.ns_per_op;
      o["items_per_second"] = e.items_per_second;
      benchmarks.push_back(std::move(o));
    }
    JsonValue::Object root;
    root["schema"] = "blockoptr-bench-v1";
    root["suite"] = suite;
    root["git_rev"] = GitRevision();
    root["benchmarks"] = std::move(benchmarks);
    std::ofstream out(path);
    out << JsonValue(std::move(root)).DumpPretty() << "\n";
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      std::exit(1);
    }
    std::printf("wrote %s (%zu benchmarks)\n", path.c_str(), entries_.size());
  }

 private:
  struct Entry {
    std::string name;
    long long scale = 0;
    double ns_per_op = 0;
    double items_per_second = 0;
  };
  std::vector<Entry> entries_;
};

}  // namespace blockoptr::bench

#endif  // BLOCKOPTR_BENCH_BENCH_UTIL_H_
