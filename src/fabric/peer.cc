#include "fabric/peer.h"

namespace blockoptr {

OrgPeer::OrgPeer(Simulator* sim, std::string org_name)
    : org_(std::move(org_name)),
      endorser_station_(
          std::make_unique<ServiceStation>(sim, org_ + "-endorser")),
      validator_station_(
          std::make_unique<ServiceStation>(sim, org_ + "-validator")) {}

void OrgPeer::OnBlockApplied(size_t num_txs) {
  ++blocks_applied_;
  txs_applied_ += num_txs;
  validator_backlog_.Set(validator_station_->CurrentDelay());
}

}  // namespace blockoptr
