#include "contracts/scm.h"

#include <cstdlib>
#include <string_view>

namespace blockoptr {

const std::vector<std::string>& ScmContract::Activities() {
  static const std::vector<std::string>* kActivities =
      new std::vector<std::string>{"PushASN",       "Ship",
                                   "QueryASN",      "Unload",
                                   "QueryProducts", "UpdateAuditInfo"};
  return *kActivities;
}

Status ScmContract::Invoke(TxContext& ctx, const std::string& function,
                           const std::vector<std::string>& args) {
  if (args.empty()) {
    return Status::InvalidArgument("scm: missing product argument");
  }
  const std::string product_key = "PRODUCT_" + args[0];

  if (function == "PushASN") {
    auto status = ctx.GetState(product_key);
    // A new shipment notice is valid for a new product or one whose
    // previous cycle completed.
    ctx.PutState(product_key, "ASN");
    (void)status;
    return Status::OK();
  }
  if (function == "Ship") {
    auto status = ctx.GetState(product_key);
    if (!status || *status != "ASN") {
      if (pruned_) {
        return Status::FailedPrecondition(
            "scm: Ship before PushASN is pruned");
      }
      // Base design: commit the read-only transaction so the deviation is
      // recorded on-chain (provenance over performance).
      return Status::OK();
    }
    ctx.PutState(product_key, "SHIPPED");
    return Status::OK();
  }
  if (function == "QueryASN") {
    ctx.GetState(product_key);
    return Status::OK();
  }
  if (function == "Unload") {
    auto status = ctx.GetState(product_key);
    if (!status || *status != "SHIPPED") {
      if (pruned_) {
        return Status::FailedPrecondition(
            "scm: Unload before Ship is pruned");
      }
      return Status::OK();  // read-only provenance record
    }
    ctx.PutState(product_key, "UNLOADED");
    return Status::OK();
  }
  if (function == "QueryProducts") {
    const std::string end = args.size() > 1 ? "PRODUCT_" + args[1] : "";
    ctx.GetStateByRange(product_key, end,
                        [](std::string_view, std::string_view) {});
    return Status::OK();
  }
  if (function == "UpdateAuditInfo") {
    // Reads the product, writes the product's audit entry — write sets of
    // UpdateAuditInfo and of PushASN/Ship/Unload are disjoint, which is
    // exactly what makes the pair reorderable (paper §3, Figure 3).
    auto product = ctx.GetState(product_key);
    const std::string audit_key = "AUDIT_" + args[0];
    auto audit = ctx.GetState(audit_key);
    std::string entry = args.size() > 1 ? args[1] : "entry";
    std::string next = audit ? *audit + ";" + entry : entry;
    if (product) next += "@" + *product;
    if (next.size() > 256) next.erase(0, next.size() - 256);
    ctx.PutState(audit_key, next);
    return Status::OK();
  }
  return Status::InvalidArgument("scm: unknown function '" + function + "'");
}

}  // namespace blockoptr
