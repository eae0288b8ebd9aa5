#include "contracts/dv.h"

#include <cstdlib>
#include <string_view>

namespace blockoptr {

const std::vector<std::string>& DvContract::Activities() {
  static const std::vector<std::string>* kActivities =
      new std::vector<std::string>{"CreateElection", "Vote", "QueryParties",
                                   "SeeResults", "EndElection"};
  return *kActivities;
}

Status DvContract::Invoke(TxContext& ctx, const std::string& function,
                          const std::vector<std::string>& args) {
  if (args.empty()) {
    return Status::InvalidArgument("dv: missing election argument");
  }
  const std::string election_key = "ELECTION_" + args[0];

  if (function == "CreateElection") {
    int parties = args.size() > 1 ? std::atoi(args[1].c_str()) : 4;
    ctx.PutState(election_key, "open");
    for (int p = 0; p < parties; ++p) {
      ctx.PutState("PARTY_" + std::to_string(p), "0");
    }
    return Status::OK();
  }
  if (function == "Vote") {
    if (args.size() < 2) {
      return Status::InvalidArgument("dv: Vote needs a party");
    }
    auto open = ctx.GetState(election_key);
    if (!open || *open != "open") {
      return Status::FailedPrecondition("dv: election is not open");
    }
    const std::string party_key = "PARTY_" + args[1];
    auto tally = ctx.GetState(party_key);
    long votes = tally ? std::strtol(tally->c_str(), nullptr, 10) : 0;
    ctx.PutState(party_key, std::to_string(votes + 1));
    return Status::OK();
  }
  if (function == "QueryParties" || function == "SeeResults") {
    ctx.GetStateByRange("PARTY_", "PARTY`",
                        [](std::string_view, std::string_view) {});
    return Status::OK();
  }
  if (function == "EndElection") {
    auto open = ctx.GetState(election_key);
    (void)open;
    ctx.PutState(election_key, "closed");
    return Status::OK();
  }
  return Status::InvalidArgument("dv: unknown function '" + function + "'");
}

Status DvVoterContract::Invoke(TxContext& ctx, const std::string& function,
                               const std::vector<std::string>& args) {
  if (args.empty()) {
    return Status::InvalidArgument("dv_voter: missing election argument");
  }
  const std::string election_key = "ELECTION_" + args[0];

  if (function == "CreateElection") {
    ctx.PutState(election_key, "open");
    return Status::OK();
  }
  if (function == "Vote") {
    if (args.size() < 3) {
      return Status::InvalidArgument("dv_voter: Vote needs party and voter");
    }
    auto open = ctx.GetState(election_key);
    if (!open || *open != "open") {
      return Status::FailedPrecondition("dv_voter: election is not open");
    }
    // One unique key per voter: no shared tally, no write conflicts.
    ctx.PutState("VOTE_" + args[2], args[1]);
    return Status::OK();
  }
  if (function == "QueryParties" || function == "SeeResults") {
    ctx.GetStateByRange("VOTE_", "VOTE`",
                        [](std::string_view, std::string_view) {});
    return Status::OK();
  }
  if (function == "EndElection") {
    ctx.PutState(election_key, "closed");
    return Status::OK();
  }
  return Status::InvalidArgument("dv_voter: unknown function '" + function +
                                 "'");
}

}  // namespace blockoptr
