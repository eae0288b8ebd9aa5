#ifndef BLOCKOPTR_TELEMETRY_TELEMETRY_H_
#define BLOCKOPTR_TELEMETRY_TELEMETRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/sampler.h"
#include "telemetry/txtrace.h"

namespace blockoptr {

/// Which aspects of a telemetry-enabled run are recorded. The two aspects
/// are independent so high-frequency runs can keep the cheap continuous
/// sampler while shedding the per-transaction costs:
///   - sampling: the continuous Sampler — one tick per period regardless
///               of load, so its cost is O(sim-time), not O(transactions).
///   - txtrace:  the per-transaction flight recorder, the one
///               per-transaction hook: packed lifecycle events in a fixed
///               ring, the critical-path stage breakdown (the
///               `stage.<name>.seconds` histograms) and tail-latency
///               exemplars.
/// Component event counters are not an aspect: components always keep
/// them and a finished run publishes them, whatever the options.
struct TelemetryOptions {
  /// Sampler period in virtual seconds; <= 0 disables the sampler.
  double sample_period_s = 0.5;
  /// Point capacity of each sampled TimeSeries.
  size_t series_capacity = 512;
  /// Flight-recorder knobs; `txtrace.enabled` is on by default (off, the
  /// path is one null check per hook and allocates nothing).
  TxTraceOptions txtrace;

  /// Continuous monitoring only: flight recorder off, sampler on. The
  /// always-on low-overhead profile.
  static TelemetryOptions SamplerOnly() {
    TelemetryOptions opts;
    opts.txtrace.enabled = false;
    return opts;
  }

  /// Flight recorder only: the causal-tracing profile.
  static TelemetryOptions TxTraceOnly() {
    TelemetryOptions opts;
    opts.sample_period_s = 0;
    opts.txtrace.enabled = true;
    return opts;
  }
};

/// Bundles the per-run observability state: one metrics registry, one
/// continuous sampler and one flight recorder, shared by every simulated
/// component of a network.
///
/// Components hold a nullable `Telemetry*` and cache the recorder pointer
/// (`TxTraceRecorder*`, null when disabled), guarding every recording site
/// with a null check — the disabled path does no work and allocates
/// nothing. During a run only the recorder writes the registry (its
/// `stage.*` histograms); ChannelRun::Finish adds the components' counts.
class Telemetry {
 public:
  /// `sim` must outlive all recording calls (exports may happen later).
  explicit Telemetry(Simulator* sim, TelemetryOptions options = {});

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// The per-aspect accessors components cache. Null when
  /// `sample_period_s <= 0`.
  Sampler* sampler() { return sampler_.get(); }
  const Sampler* sampler() const { return sampler_.get(); }
  /// Null unless `txtrace.enabled`.
  TxTraceRecorder* txtrace() { return txtrace_.get(); }
  const TxTraceRecorder* txtrace() const { return txtrace_.get(); }

 private:
  MetricsRegistry metrics_;
  std::unique_ptr<Sampler> sampler_;
  std::unique_ptr<TxTraceRecorder> txtrace_;
};

/// Latency summary of one critical-path stage.
struct StageLatency {
  std::string stage;
  uint64_t count = 0;
  double mean_s = 0;
  double p50_s = 0;
  double p95_s = 0;
  double max_s = 0;
};

/// Name of the histogram the flight recorder feeds for critical-path stage
/// `stage`: "stage.<CriticalStageName>.seconds".
std::string StageHistogramName(int stage);

/// The run's per-stage latency breakdown: one row per critical-path stage
/// whose `stage.<name>.seconds` histogram exists (the flight recorder
/// observes every committed transaction's six spans into them), in
/// pipeline order. max_s is the exact largest observation; p50/p95 come
/// from Histogram::Quantile, which never exceeds it.
std::vector<StageLatency> ComputeStageBreakdown(
    const MetricsRegistry& metrics);

/// Paper-style fixed-width table of a stage breakdown; "" when empty.
std::string FormatStageBreakdownTable(const std::vector<StageLatency>& stages);

}  // namespace blockoptr

#endif  // BLOCKOPTR_TELEMETRY_TELEMETRY_H_
