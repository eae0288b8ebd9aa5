#ifndef BLOCKOPTR_REORDER_FABRICSHARP_H_
#define BLOCKOPTR_REORDER_FABRICSHARP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fabric/orderer.h"
#include "statedb/versioned_store.h"

namespace blockoptr {

/// FabricSharp-style OCC reordering (Ruan et al., SIGMOD'20 [65]): the
/// ordering service keeps a *shadow* of the versions its already-ordered
/// blocks will produce, early-aborts transactions whose reads are provably
/// stale against that shadow (they would fail MVCC validation anyway), and
/// serializes the survivors within the block like Fabric++.
///
/// The shadow assumes every surviving transaction commits; transactions
/// that later fail endorsement-policy validation leave the shadow ahead of
/// reality, causing over-aborts — the mechanism behind the paper's note
/// that FabricSharp interacts badly with endorsement failures (§6.4).
class FabricSharpReorderer : public BlockReorderer {
 public:
  /// `first_block_num` must match the number the network will assign to
  /// the first cut block (1: right after the genesis block).
  explicit FabricSharpReorderer(uint64_t first_block_num = 1)
      : next_block_num_(first_block_num) {}

  std::string name() const override { return "fabricsharp"; }

  void ProcessBatch(std::vector<Transaction>& batch) override;

  /// The shadow bookkeeping plus graph work costs more per transaction
  /// than Fabric++'s pure intra-block pass.
  double ExtraBlockCost(size_t batch_size) const override {
    return 0.015 + 0.0003 * static_cast<double>(batch_size);
  }

  uint64_t cross_block_aborts() const { return cross_block_aborts_; }
  uint64_t intra_block_aborts() const { return intra_block_aborts_; }

 private:
  bool ReadsFreshAgainstShadow(const ReadWriteSet& rwset) const;

  struct ShadowEntry {
    KeyId id = kInvalidKeyId;
    // Version the key will hold once pending blocks commit; nullopt means
    // the key will be deleted.
    std::optional<Version> version;
  };
  // Keyed by the interner's view of the key (stable for the process
  // lifetime), in key order so a range query can scan it for inserts.
  std::map<std::string_view, ShadowEntry> shadow_;
  uint64_t next_block_num_;
  uint64_t cross_block_aborts_ = 0;
  uint64_t intra_block_aborts_ = 0;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_REORDER_FABRICSHARP_H_
