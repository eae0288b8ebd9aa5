#include "ledger/transaction.h"

#include <algorithm>

namespace blockoptr {

std::string_view TxStatusName(TxStatus s) {
  switch (s) {
    case TxStatus::kValid:
      return "VALID";
    case TxStatus::kMvccReadConflict:
      return "MVCC_READ_CONFLICT";
    case TxStatus::kPhantomReadConflict:
      return "PHANTOM_READ_CONFLICT";
    case TxStatus::kEndorsementPolicyFailure:
      return "ENDORSEMENT_POLICY_FAILURE";
    case TxStatus::kConfig:
      return "CONFIG";
  }
  return "UNKNOWN";
}

std::string_view TxTypeName(TxType t) {
  switch (t) {
    case TxType::kRead:
      return "read";
    case TxType::kWrite:
      return "write";
    case TxType::kUpdate:
      return "update";
    case TxType::kRangeRead:
      return "range_read";
    case TxType::kDelete:
      return "delete";
  }
  return "unknown";
}

TxType DeriveTxType(const ReadWriteSet& rwset) {
  const bool has_delete =
      std::any_of(rwset.writes.begin(), rwset.writes.end(),
                  [](const WriteItem& w) { return w.is_delete; });
  if (has_delete) return TxType::kDelete;
  if (!rwset.range_queries.empty()) return TxType::kRangeRead;
  if (rwset.writes.empty()) return TxType::kRead;
  // A write that also reads the same key is an update (read-modify-write).
  for (const auto& w : rwset.writes) {
    if (rwset.HasReadOf(w.id)) return TxType::kUpdate;
  }
  return TxType::kWrite;
}

}  // namespace blockoptr
