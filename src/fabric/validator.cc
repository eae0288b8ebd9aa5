#include "fabric/validator.h"

#include <algorithm>
#include <string_view>
#include <vector>

namespace blockoptr {

namespace {

bool ReadItemCurrent(const ReadItem& r, const VersionedStore& state) {
  const VersionedValue* vv = state.PeekById(r.id);
  if (vv == nullptr) return !r.version.has_value();
  return r.version.has_value() && *r.version == vv->version;
}

bool RangeQueryCurrent(const RangeQueryInfo& rq, const VersionedStore& state) {
  // Re-executes the range and compares (key id, version) per entry: no key
  // string is read or copied, and the first divergence stops the walk.
  size_t i = 0;
  bool matches = true;
  state.RangeVisit(rq.start_key, rq.end_key,
                   [&](std::string_view, const VersionedValue& vv) {
                     if (i >= rq.results.size() ||
                         rq.results[i] != RangeResult{vv.id, vv.version}) {
                       matches = false;
                       return false;
                     }
                     ++i;
                     return true;
                   });
  // A shorter current range (deleted keys) must also be a phantom.
  return matches && i == rq.results.size();
}

bool PointReadsCurrent(const ReadWriteSet& rwset, const VersionedStore& state) {
  for (const auto& r : rwset.reads) {
    if (!ReadItemCurrent(r, state)) return false;
  }
  return true;
}

bool RangeReadsCurrent(const ReadWriteSet& rwset, const VersionedStore& state) {
  for (const auto& rq : rwset.range_queries) {
    if (!RangeQueryCurrent(rq, state)) return false;
  }
  return true;
}

void ApplyWrites(const ReadWriteSet& rwset, VersionedStore& state,
                 Version version) {
  for (const auto& w : rwset.writes) {
    state.ApplyById(w.id, w.value, w.is_delete, version);
  }
}

}  // namespace

bool ReadsAreCurrent(const ReadWriteSet& rwset, const VersionedStore& state) {
  return PointReadsCurrent(rwset, state) && RangeReadsCurrent(rwset, state);
}

BlockValidationStats ValidateAndApplyBlock(Block& block, VersionedStore& state,
                                           const EndorsementPolicy& policy) {
  BlockValidationStats stats;
  uint32_t tx_pos = 0;
  // Reused across transactions so the signer check allocates at most once
  // per block (endorser lists are a handful of org names).
  std::vector<std::string_view> signers;
  for (auto& tx : block.transactions) {
    const uint32_t pos = tx_pos++;
    if (tx.is_config) {
      tx.status = TxStatus::kConfig;
      continue;
    }
    if (tx.pre_aborted) {
      // Status stamped by the reordering scheduler; count it.
      switch (tx.status) {
        case TxStatus::kMvccReadConflict:
          ++stats.mvcc_conflicts;
          break;
        case TxStatus::kPhantomReadConflict:
          ++stats.phantom_conflicts;
          break;
        default:
          ++stats.endorsement_failures;
          break;
      }
      continue;
    }
    // 1. VSCC: signature set must satisfy the endorsement policy.
    signers.assign(tx.endorsers.begin(), tx.endorsers.end());
    std::sort(signers.begin(), signers.end());
    signers.erase(std::unique(signers.begin(), signers.end()), signers.end());
    if (!policy.IsSatisfiedBy(signers)) {
      tx.status = TxStatus::kEndorsementPolicyFailure;
      ++stats.endorsement_failures;
      continue;
    }
    // 2. MVCC point-read check.
    if (!PointReadsCurrent(tx.rwset, state)) {
      tx.status = TxStatus::kMvccReadConflict;
      ++stats.mvcc_conflicts;
      continue;
    }
    // 3. Phantom (range-read) check.
    if (!RangeReadsCurrent(tx.rwset, state)) {
      tx.status = TxStatus::kPhantomReadConflict;
      ++stats.phantom_conflicts;
      continue;
    }
    tx.status = TxStatus::kValid;
    ++stats.valid;
    ApplyWrites(tx.rwset, state, Version{block.block_num, pos});
  }
  return stats;
}

}  // namespace blockoptr
