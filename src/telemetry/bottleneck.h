#ifndef BLOCKOPTR_TELEMETRY_BOTTLENECK_H_
#define BLOCKOPTR_TELEMETRY_BOTTLENECK_H_

#include <string>
#include <vector>

#include "common/json.h"
#include "telemetry/telemetry.h"

namespace blockoptr {

/// One injected fault's active window (driver/faults.h resolves these at
/// run time, e.g. "leader-crash(node1)" over [5.0, 15.0]). Plain data so
/// the telemetry layer stays independent of the driver.
struct FaultWindow {
  std::string name;
  double start = 0;
  double end = 0;
};

/// How much one ServiceStation contributed to the run, with the evidence
/// window where it was hottest.
struct StationAttribution {
  std::string station;  // display name, e.g. "peer/Org2/endorser"
  std::string stage;    // critical-path stage the station serves
  double utilization = 0;       // whole-run busy share across servers
  double peak_utilization = 0;  // hottest sampled window
  /// Longest contiguous stretch of near-peak utilization (the evidence
  /// window cited in recommendation rationales). Zero-width when the
  /// station never did work.
  double window_start = 0;
  double window_end = 0;
  double mean_wait_s = 0;     // whole-run mean queue wait
  double mean_service_s = 0;  // whole-run mean service time
  double queue_peak_s = 0;    // deepest sampled backlog, in seconds
};

/// Peak behaviour of one pipeline-level sampled series (throughput,
/// conflict rate, block fill, ...).
struct SeriesSummary {
  std::string name;
  double mean = 0;
  double peak = 0;
  double window_start = 0;  // longest near-peak stretch
  double window_end = 0;
};

/// The run's bottleneck attribution: queueing evidence (station
/// utilization over sampled windows) joined with critical-path evidence
/// (which stage dominates committed end-to-end latency). `saturated` is
/// set when the top station's whole-run utilization crosses the
/// saturation threshold — then the named station *is* the bottleneck;
/// otherwise the dominant critical-path stage is named and the run is
/// latency- rather than capacity-bound.
struct BottleneckReport {
  /// Per-stage latency breakdown (ComputeStageBreakdown over the stage
  /// histograms); empty when the flight recorder was off.
  std::vector<StageLatency> stages;
  std::vector<StationAttribution> stations;  // sorted by utilization desc
  std::vector<SeriesSummary> series;         // pipeline-level series
  bool saturated = false;
  std::string bottleneck_station;  // "" when no station evidence
  std::string bottleneck_stage;
  double bottleneck_utilization = 0;
  double window_start = 0;
  double window_end = 0;
  /// Causal-chain evidence from the flight recorder (txtrace aspect): one
  /// entry per critical stage with its share of total committed latency
  /// and how much of that stage's time was queueing rather than service.
  /// The shares partition end-to-end latency exactly and sum to ~1.0.
  /// Empty when txtrace off.
  struct CriticalPathShare {
    std::string stage;       // CriticalStageName order
    double share = 0;        // stage span / total committed latency
    double wait_share = 0;   // queueing share within the stage
  };
  std::vector<CriticalPathShare> critical_path;
  /// Dominant critical-path stage and its share ("" / 0 when txtrace off).
  std::string critical_path_stage;
  double critical_path_share = 0;
  /// Fault windows active during the run (empty for healthy runs).
  std::vector<FaultWindow> faults;
  /// The injected fault named as the verdict: the fault whose window best
  /// overlaps the bottleneck evidence window ("" when no fault was
  /// active). When set, `summary` leads with the fault.
  std::string active_fault;
  /// One-sentence human-readable attribution.
  std::string summary;

  /// Highest-utilization station of `stage`; null when none.
  const StationAttribution* ForStage(const std::string& stage) const;
  const StationAttribution* Top() const {
    return stations.empty() ? nullptr : &stations.front();
  }
};

/// Whole-run utilization at/above which a station counts as saturated.
inline constexpr double kSaturationThreshold = 0.8;

/// Builds the attribution from a finished run's telemetry.
/// `run_duration_s` is the run's virtual end time (used for whole-run
/// utilization). Works with any subset of aspects enabled: stage and
/// critical-path analysis need the flight recorder, station/series
/// analysis needs the sampler. When
/// `fault_windows` is non-null and non-empty, the report names the active
/// fault as the verdict (the cause behind the saturated station / dominant
/// stage).
BottleneckReport ComputeBottleneckReport(
    const Telemetry& telemetry, double run_duration_s,
    const std::vector<FaultWindow>* fault_windows = nullptr);

/// Fixed-width station-attribution table (evidence windows included);
/// "" when there is no station evidence.
std::string FormatBottleneckTable(const BottleneckReport& report);

JsonValue BottleneckToJson(const BottleneckReport& report);

/// "[40.0s,80.0s]" — the evidence-window notation used in rationales.
std::string FormatEvidenceWindow(double start_s, double end_s);

}  // namespace blockoptr

#endif  // BLOCKOPTR_TELEMETRY_BOTTLENECK_H_
