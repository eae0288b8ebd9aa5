#include "contracts/gen_chain.h"

#include <cstdlib>
#include <string_view>

namespace blockoptr {

Status GenChainContract::Invoke(TxContext& ctx, const std::string& function,
                                const std::vector<std::string>& args) {
  auto need = [&](size_t n) -> Status {
    if (args.size() < n) {
      return Status::InvalidArgument(function + " requires " +
                                     std::to_string(n) + " argument(s)");
    }
    return Status::OK();
  };

  if (function == "Read") {
    BLOCKOPTR_RETURN_NOT_OK(need(1));
    ctx.GetState(args[0]);
    return Status::OK();
  }
  if (function == "Write") {
    // Blind insert: no read, so the write itself cannot fail MVCC
    // validation. Inserts still conflict with concurrent range reads
    // (phantoms) — which is what makes the insert-heavy workload
    // reorderable rather than self-dependent.
    BLOCKOPTR_RETURN_NOT_OK(need(2));
    ctx.PutState(args[0], args[1]);
    return Status::OK();
  }
  if (function == "Update") {
    // Read-modify-write without increment/decrement semantics — the paper
    // notes genChain has no counter operations (§6.1), so delta writes are
    // never applicable to the synthetic workloads.
    BLOCKOPTR_RETURN_NOT_OK(need(2));
    auto current = ctx.GetState(args[0]);
    std::string next = args[1];
    if (current && !current->empty()) next += "." + current->substr(0, 8);
    ctx.PutState(args[0], next);
    return Status::OK();
  }
  if (function == "RangeRead") {
    BLOCKOPTR_RETURN_NOT_OK(need(2));
    ctx.GetStateByRange(args[0], args[1],
                        [](std::string_view, std::string_view) {});
    return Status::OK();
  }
  if (function == "Delete") {
    BLOCKOPTR_RETURN_NOT_OK(need(1));
    ctx.GetState(args[0]);
    ctx.DeleteState(args[0]);
    return Status::OK();
  }
  return Status::InvalidArgument("genchain: unknown function '" + function +
                                 "'");
}

}  // namespace blockoptr
