#ifndef BLOCKOPTR_CHAINCODE_TX_CONTEXT_H_
#define BLOCKOPTR_CHAINCODE_TX_CONTEXT_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ledger/rwset.h"
#include "statedb/versioned_store.h"

namespace blockoptr {

/// The execution context handed to a chaincode function during simulation
/// (endorsement). It records every state access into a read-write set,
/// reproducing Fabric shim semantics:
///
///  * `GetState` always reads the *committed* store — a transaction never
///    observes its own writes (Fabric's documented behaviour under its
///    optimistic execution model).
///  * Repeated reads of the same key record one read item.
///  * Repeated writes to the same key keep only the last write.
///  * `GetStateByRange` records the query bounds and the exact observed
///    (key, version) results, enabling phantom-read validation. It streams
///    the results instead of returning them: `visit(key, value)` runs once
///    per entry, in key order, with the namespace stripped from the key.
///    Both views are valid only during the call. A contract that only
///    needs the read recorded passes a visitor that does nothing.
///
/// Keys are namespaced by chaincode name ("<chaincode>~<key>"), matching
/// Fabric's per-chaincode world-state namespacing — this is what makes
/// smart-contract partitioning (paper §4.4.2) effective.
class TxContext {
 public:
  /// `store` is the endorsing peer's committed world state; must outlive
  /// the context. `ns` is the executing chaincode's namespace.
  TxContext(const VersionedStore* store, std::string ns);

  // -- Shim API used by contracts -------------------------------------

  /// Committed value of `key` in the current namespace, or nullopt.
  std::optional<std::string> GetState(std::string_view key);

  /// Stages a write of `key` = `value`.
  void PutState(std::string_view key, std::string_view value);

  /// Stages a deletion of `key`.
  void DeleteState(std::string_view key);

  /// Called per range result with the un-namespaced key and its value.
  using RangeVisitor =
      std::function<void(std::string_view key, std::string_view value)>;

  /// Ordered scan of [start_key, end_key) in the current namespace: calls
  /// `visit` per entry and records a range query for phantom validation.
  /// Empty `end_key` scans to the end of the namespace.
  void GetStateByRange(std::string_view start_key, std::string_view end_key,
                       const RangeVisitor& visit);

  // -- Namespace control (cross-chaincode invocation) -------------------

  /// Temporarily switches the active namespace (used by
  /// `Chaincode::InvokeChaincode`); restored by `PopNamespace`.
  void PushNamespace(std::string ns);
  void PopNamespace();
  const std::string& current_namespace() const { return ns_stack_.back(); }

  /// The accumulated read-write set (interned namespaced keys).
  const ReadWriteSet& rwset() const { return rwset_; }
  ReadWriteSet TakeRwset() { return std::move(rwset_); }

 private:
  std::string Namespaced(std::string_view key) const;
  /// Interns "<ns>~<key>", built in `key_buf_` so a point access copies
  /// no key string once the buffer has grown.
  KeyId InternNamespaced(std::string_view key);
  /// The staged write of `id`, appended (empty, not a delete) on first
  /// sight; repeated writes to a key keep one item.
  WriteItem& WriteSlot(KeyId id);

  const VersionedStore* store_;
  std::vector<std::string> ns_stack_;
  ReadWriteSet rwset_;
  std::string key_buf_;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_CHAINCODE_TX_CONTEXT_H_
