#include "fabric/endorser.h"

namespace blockoptr {

EndorseResult ExecuteProposal(Chaincode& chaincode,
                              const VersionedStore& store,
                              const ClientRequest& request) {
  TxContext ctx(&store, chaincode.name());
  Status st = chaincode.Invoke(ctx, request.function, request.args);
  return EndorseResult{std::move(st), ctx.TakeRwset()};
}

uint64_t EstimateTxBytes(const ClientRequest& request,
                         const ReadWriteSet& rwset) {
  // Envelope base (signatures, headers, endorser identities) plus payload.
  uint64_t bytes = 512;
  bytes += request.chaincode.size() + request.function.size();
  for (const auto& a : request.args) bytes += a.size();
  for (const auto& r : rwset.reads) bytes += r.key().size() + 16;
  for (const auto& w : rwset.writes) bytes += w.key().size() + w.value.size();
  for (const auto& rq : rwset.range_queries) {
    bytes += rq.start_key.size() + rq.end_key.size();
    bytes += rq.results.size() * 24;
  }
  return bytes;
}

}  // namespace blockoptr
