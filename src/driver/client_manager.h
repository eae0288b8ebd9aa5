#ifndef BLOCKOPTR_DRIVER_CLIENT_MANAGER_H_
#define BLOCKOPTR_DRIVER_CLIENT_MANAGER_H_

#include <string>
#include <vector>

#include "workload/spec.h"

namespace blockoptr {

/// Knobs of the client manager — the driver-side component that, like the
/// paper's Caliper configuration (§4.5 "Our implementations"), can order
/// transactions across clients (activity reordering) and control the
/// generated transaction rate (rate control).
struct ClientManagerSettings {
  /// Activities moved to the front of the run (executed before everything
  /// else commits).
  std::vector<std::string> activities_first;

  /// Activities deferred to the end of the run (the paper's DRM/SCM
  /// redesigns: run conflicting queries after the write traffic).
  std::vector<std::string> activities_last;

  /// Maximum client send rate in TPS (0 = uncapped).
  double rate_cap_tps = 0;

  /// When true, rate control only stretches overloaded periods instead of
  /// re-pacing the entire schedule.
  bool windowed_rate_control = false;

  bool HasReordering() const {
    return !activities_first.empty() || !activities_last.empty();
  }
};

/// Applies the client-manager transformations to a workload schedule and
/// returns the effective schedule the clients will execute.
class ClientManager {
 public:
  static Schedule Prepare(Schedule schedule,
                          const ClientManagerSettings& settings);
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_DRIVER_CLIENT_MANAGER_H_
