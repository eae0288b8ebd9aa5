#ifndef BLOCKOPTR_DRIVER_FAULTS_H_
#define BLOCKOPTR_DRIVER_FAULTS_H_

// Deterministic fault injection (ROADMAP item 4). A FaultPlan is a list of
// sim-time-scheduled fault events — Raft node crashes, endorser
// degradation/outage, arrival-process modulation — parsed from the CLI
// `--faults=` spec or taken from the preset library. The FaultInjector
// turns the plan into simulator events against a live FabricNetwork;
// arrival faults are pure Schedule transforms applied before the run.
// Everything is deterministic per (config, plan): no wall clock, no
// extra RNG draws, so the sweep determinism contract (driver/sweep.h)
// extends to faulted experiments unchanged.

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "sim/simulator.h"
#include "telemetry/bottleneck.h"
#include "workload/spec.h"

namespace blockoptr {

class FabricNetwork;

enum class FaultKind {
  /// Crash-stop the current Raft leader at `at`; restart it after
  /// `duration` (0 = stays down for the rest of the run). The crashed
  /// node is resolved at fire time, so the fault always hits the acting
  /// leader even after earlier elections.
  kLeaderCrash,
  /// Crash-stop orderer node `node` (0-based) at `at`; restart after
  /// `duration`.
  kNodeCrash,
  /// Black-hole org `org`'s endorser over [at, at+duration): proposals
  /// sent to it time out and come back as refusals. Transactions proceed
  /// with fewer signatures (failing endorsement-policy validation when
  /// too few) or early-abort when no endorser answered — never a silent
  /// drop.
  kEndorserOutage,
  /// Straggler: scale org `org`'s endorsement execution cost by `factor`
  /// over [at, at+duration).
  kEndorserSlow,
  /// Burst window: arrivals that originally fell in
  /// [at, at+factor*duration) are compressed into [at, at+duration), so
  /// the client send rate is `factor`x inside the window. Request count
  /// and order are preserved exactly (monotone time warp).
  kBurst,
  /// Diurnal ramp: from `at` on, the arrival rate is modulated by
  /// 1 + factor*sin(2*pi*(t-at)/period) (factor is the amplitude in
  /// [0, 0.95]). Count and order preserved exactly.
  kDiurnal,
  /// Mid-run hot-key shift: synthetic keys ("keyNNNNNN") in requests with
  /// send_time >= `at` are rotated by `offset` modulo the schedule's key
  /// space, moving the hot set under Zipfian skew. RangeRead arguments
  /// are left alone so ranges stay well-formed.
  kSkewShift,
};

std::string_view FaultKindName(FaultKind kind);

/// One scheduled fault. Fields without meaning for a kind are ignored.
struct FaultEvent {
  FaultKind kind = FaultKind::kLeaderCrash;
  double at = 5.0;        // sim-time onset (seconds)
  double duration = 0;    // 0 = rest of the run (where meaningful)
  int node = 0;           // orderer node for kNodeCrash (0-based)
  int org = 1;            // organization for endorser faults (1-based)
  double factor = 4.0;    // slowdown / burst multiplier / diurnal amplitude
  double period = 20.0;   // diurnal period (seconds)
  int offset = 137;       // skew-shift key rotation
};

/// "leader-crash@t=5,dur=10" — the spec notation of one event.
std::string DescribeFault(const FaultEvent& event);

struct FaultPlan {
  std::vector<FaultEvent> events;
  bool enabled() const { return !events.empty(); }
};

/// OK if `event`'s parameters are finite and in range for its kind;
/// ParseFaultPlan accepts no event that fails this.
Status ValidateEvent(const FaultEvent& event);

/// Preset names understood by ParseFaultPlan ("leader-crash",
/// "endorser-outage", ...), each a single event with canned parameters.
std::vector<std::string> FaultPresetNames();

/// Parses a `--faults=` spec: semicolon-separated events, each a preset
/// name optionally followed by `@key=value,key=value` overrides. Keys:
/// t (onset), dur, node, org, factor, period, offset. Examples:
///   "leader-crash@t=10,dur=5"
///   "endorser-slow@t=5,org=2,factor=8,dur=20;burst@t=30,dur=5,factor=4"
Result<FaultPlan> ParseFaultPlan(const std::string& spec);

/// Applies the plan's arrival-process events (burst, diurnal, skew shift)
/// to the schedule in place, then re-normalizes it. Pure and
/// deterministic; events of other kinds are ignored. Time-warp events
/// preserve the request count and relative order exactly.
void ApplyArrivalFaults(Schedule& schedule, const FaultPlan& plan);

/// Schedules the plan's runtime events (crashes, endorser degradation)
/// against a live network and records the resolved fault windows — the
/// attribution input of ComputeBottleneckReport. Construct after the
/// network, call Arm() before running the simulator, FinalizeWindows()
/// after; the injector must outlive the run loop.
class FaultInjector {
 public:
  /// `sim` and `network` must outlive the injector.
  FaultInjector(Simulator* sim, FabricNetwork* network, FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void Arm();

  /// Clamps open-ended windows ("rest of the run") to the run's end time.
  void FinalizeWindows(double end_time);

  /// One window per plan event (arrival events included), named with the
  /// resolved target, e.g. "leader-crash(node1)" or
  /// "endorser-outage(Org2)".
  const std::vector<FaultWindow>& windows() const { return windows_; }

 private:
  static constexpr double kOpenEnded = -1.0;

  Simulator* sim_;
  FabricNetwork* network_;
  FaultPlan plan_;
  std::vector<FaultWindow> windows_;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_DRIVER_FAULTS_H_
