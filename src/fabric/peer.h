#ifndef BLOCKOPTR_FABRIC_PEER_H_
#define BLOCKOPTR_FABRIC_PEER_H_

#include <memory>
#include <string>

#include "sim/service_station.h"
#include "statedb/versioned_store.h"
#include "telemetry/metrics.h"

namespace blockoptr {

/// One organization's peer: an endorsing + committing node with its own
/// copy of the world state. The peer's endorser and validator are separate
/// service stations (Fabric runs endorsement and validation on different
/// executors), sharing the store.
///
/// The store is updated only when the peer's *validator* finishes applying
/// a block, so a peer whose validator is backlogged endorses against stale
/// state — the mechanistic source of endorsement mismatches and extra MVCC
/// conflicts under load.
class OrgPeer {
 public:
  OrgPeer(Simulator* sim, std::string org_name);

  const std::string& org() const { return org_; }
  VersionedStore& store() { return store_; }
  const VersionedStore& store() const { return store_; }
  ServiceStation& endorser_station() { return *endorser_station_; }
  ServiceStation& validator_station() { return *validator_station_; }

  /// Counts a block this peer applied and samples its validator backlog.
  void OnBlockApplied(size_t num_txs);

  // Always-on counts: the `peer.<org>.*` metrics of a telemetry run.
  uint64_t blocks_applied() const { return blocks_applied_; }
  uint64_t txs_applied() const { return txs_applied_; }
  /// Validator lag per applied block: why endorsers read stale state.
  const Gauge& validator_backlog() const { return validator_backlog_; }

 private:
  std::string org_;
  VersionedStore store_;
  std::unique_ptr<ServiceStation> endorser_station_;
  std::unique_ptr<ServiceStation> validator_station_;
  uint64_t blocks_applied_ = 0;
  uint64_t txs_applied_ = 0;
  Gauge validator_backlog_;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_FABRIC_PEER_H_
