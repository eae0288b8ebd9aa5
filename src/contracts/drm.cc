#include "contracts/drm.h"

#include <cstdlib>
#include <string>
#include <string_view>

#include "common/string_util.h"

namespace blockoptr {

namespace {

constexpr double kRevenuePerPlay = 0.01;

std::string MusicKey(const std::string& id) { return "MUSIC_" + id; }

/// Parses "<count>|<metadata>|<rights>"; returns the count.
long ParseCount(const std::string& value) {
  return std::strtol(value.c_str(), nullptr, 10);
}

std::string MakeRecord(long count, const std::string& meta,
                       const std::string& rights) {
  return std::to_string(count) + "|" + meta + "|" + rights;
}

Status NeedArgs(const std::string& function,
                const std::vector<std::string>& args, size_t n) {
  if (args.size() < n) {
    return Status::InvalidArgument("drm: " + function + " requires " +
                                   std::to_string(n) + " argument(s)");
  }
  return Status::OK();
}

}  // namespace

const std::vector<std::string>& DrmContract::Activities() {
  static const std::vector<std::string>* kActivities =
      new std::vector<std::string>{"Create", "Play", "ViewMetaData",
                                   "QueryRightHolders", "CalcRevenue"};
  return *kActivities;
}

Status DrmContract::Invoke(TxContext& ctx, const std::string& function,
                           const std::vector<std::string>& args) {
  BLOCKOPTR_RETURN_NOT_OK(NeedArgs(function, args, 1));
  const std::string key = MusicKey(args[0]);

  if (function == "Create") {
    ctx.GetState(key);  // existence check
    const std::string meta = args.size() > 1 ? args[1] : "meta";
    const std::string rights = args.size() > 2 ? args[2] : "artist";
    ctx.PutState(key, MakeRecord(0, meta, rights));
    return Status::OK();
  }
  if (function == "Play") {
    auto record = ctx.GetState(key);
    if (!record) {
      return Status::NotFound("drm: unknown music '" + args[0] + "'");
    }
    auto parts = Split(*record, '|');
    long count = ParseCount(parts[0]);
    ctx.PutState(key, MakeRecord(count + 1, parts.size() > 1 ? parts[1] : "",
                                 parts.size() > 2 ? parts[2] : ""));
    return Status::OK();
  }
  if (function == "ViewMetaData" || function == "QueryRightHolders") {
    ctx.GetState(key);
    return Status::OK();
  }
  if (function == "CalcRevenue") {
    auto record = ctx.GetState(key);
    long count = record ? ParseCount(*record) : 0;
    ctx.PutState("REV_" + args[0],
                 FormatDouble(static_cast<double>(count) * kRevenuePerPlay, 2));
    return Status::OK();
  }
  return Status::InvalidArgument("drm: unknown function '" + function + "'");
}

Status DrmDeltaContract::Invoke(TxContext& ctx, const std::string& function,
                                const std::vector<std::string>& args) {
  BLOCKOPTR_RETURN_NOT_OK(NeedArgs(function, args, 1));
  const std::string key = MusicKey(args[0]);

  if (function == "Play") {
    // Delta write: a unique key per playback, no read — the transaction
    // becomes a blind write with no MVCC dependency.
    BLOCKOPTR_RETURN_NOT_OK(NeedArgs(function, args, 2));
    ctx.PutState("DELTA_" + args[0] + "_" + args[1], "1");
    return Status::OK();
  }
  if (function == "CalcRevenue") {
    // Aggregate all delta keys for this music id (the expensive part the
    // paper notes: CalcRevenue latency rises, but it runs rarely).
    long count = 0;
    ctx.GetStateByRange(
        "DELTA_" + args[0] + "_", "DELTA_" + args[0] + "`",
        [&count](std::string_view, std::string_view value) {
          // Delta values are "1": the copy stays inline.
          count += std::strtol(std::string(value).c_str(), nullptr, 10);
        });
    ctx.PutState("REV_" + args[0],
                 FormatDouble(static_cast<double>(count) * kRevenuePerPlay, 2));
    return Status::OK();
  }
  if (function == "Create") {
    ctx.GetState(key);
    const std::string meta = args.size() > 1 ? args[1] : "meta";
    const std::string rights = args.size() > 2 ? args[2] : "artist";
    ctx.PutState(key, MakeRecord(0, meta, rights));
    return Status::OK();
  }
  if (function == "ViewMetaData" || function == "QueryRightHolders") {
    ctx.GetState(key);
    return Status::OK();
  }
  return Status::InvalidArgument("drm_delta: unknown function '" + function +
                                 "'");
}

Status DrmMetaContract::Invoke(TxContext& ctx, const std::string& function,
                               const std::vector<std::string>& args) {
  BLOCKOPTR_RETURN_NOT_OK(NeedArgs(function, args, 1));
  const std::string key = MusicKey(args[0]);
  if (function == "Create") {
    ctx.GetState(key);
    const std::string meta = args.size() > 1 ? args[1] : "meta";
    const std::string rights = args.size() > 2 ? args[2] : "artist";
    ctx.PutState(key, meta + "|" + rights);
    return Status::OK();
  }
  if (function == "ViewMetaData" || function == "QueryRightHolders") {
    ctx.GetState(key);
    return Status::OK();
  }
  return Status::InvalidArgument("drmmeta: unknown function '" + function +
                                 "'");
}

Status DrmPlayContract::Invoke(TxContext& ctx, const std::string& function,
                               const std::vector<std::string>& args) {
  BLOCKOPTR_RETURN_NOT_OK(NeedArgs(function, args, 1));
  const std::string key = MusicKey(args[0]);

  if (function == "Create") {
    ctx.GetState(key);
    ctx.PutState(key, "0");
    // Keep the metadata partition in sync (cross-chaincode invocation).
    return InvokeChaincode(meta_, ctx, "Create", args);
  }
  if (function == "Play") {
    auto record = ctx.GetState(key);
    if (!record) {
      return Status::NotFound("drmplay: unknown music '" + args[0] + "'");
    }
    long count = std::strtol(record->c_str(), nullptr, 10);
    ctx.PutState(key, std::to_string(count + 1));
    return Status::OK();
  }
  if (function == "CalcRevenue") {
    auto record = ctx.GetState(key);
    long count = record ? std::strtol(record->c_str(), nullptr, 10) : 0;
    ctx.PutState("REV_" + args[0],
                 FormatDouble(static_cast<double>(count) * kRevenuePerPlay, 2));
    return Status::OK();
  }
  return Status::InvalidArgument("drmplay: unknown function '" + function +
                                 "'");
}

}  // namespace blockoptr
