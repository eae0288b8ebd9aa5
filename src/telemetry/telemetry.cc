#include "telemetry/telemetry.h"

#include <cstdio>

namespace blockoptr {

Telemetry::Telemetry(Simulator* sim, TelemetryOptions options) {
  if (options.sample_period_s > 0) {
    sampler_ = std::make_unique<Sampler>(
        sim, SamplerConfig{options.sample_period_s, options.series_capacity});
  }
  if (options.txtrace.enabled) {
    txtrace_ = std::make_unique<TxTraceRecorder>(sim, options.txtrace);
    // Registry references are stable (node-based maps), so the recorder
    // keeps these for the whole run.
    Histogram* stages[kNumCriticalStages];
    for (int i = 0; i < kNumCriticalStages; ++i) {
      stages[i] = &metrics_.histogram(StageHistogramName(i));
    }
    txtrace_->set_stage_histograms(stages);
  }
}

std::string StageHistogramName(int stage) {
  return std::string("stage.") + CriticalStageName(stage) + ".seconds";
}

std::vector<StageLatency> ComputeStageBreakdown(
    const MetricsRegistry& metrics) {
  std::vector<StageLatency> out;
  for (int i = 0; i < kNumCriticalStages; ++i) {
    auto it = metrics.histograms().find(StageHistogramName(i));
    if (it == metrics.histograms().end()) continue;
    const Histogram& h = it->second;
    StageLatency row;
    row.stage = CriticalStageName(i);
    row.count = h.count();
    row.mean_s = h.Mean();
    row.p50_s = h.Quantile(0.5);
    row.p95_s = h.Quantile(0.95);
    row.max_s = h.max();
    out.push_back(std::move(row));
  }
  return out;
}

std::string FormatStageBreakdownTable(
    const std::vector<StageLatency>& stages) {
  if (stages.empty()) return "";
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-10s %10s %12s %12s %12s %12s\n",
                "stage", "txs", "mean(s)", "p50(s)", "p95(s)", "max(s)");
  out += line;
  for (const auto& s : stages) {
    std::snprintf(line, sizeof(line),
                  "%-10s %10llu %12.6f %12.6f %12.6f %12.6f\n",
                  s.stage.c_str(), static_cast<unsigned long long>(s.count),
                  s.mean_s, s.p50_s, s.p95_s, s.max_s);
    out += line;
  }
  return out;
}

}  // namespace blockoptr
