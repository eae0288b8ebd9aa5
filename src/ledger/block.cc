#include "ledger/block.h"

#include <string_view>

namespace blockoptr {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void HashBytes(uint64_t& h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime;
  }
}

void HashU64(uint64_t& h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= kFnvPrime;
  }
}

}  // namespace

uint64_t Block::ComputeHash() const {
  uint64_t h = kFnvOffset;
  HashU64(h, block_num);
  HashU64(h, prev_hash);
  for (const auto& tx : transactions) {
    HashU64(h, tx.tx_id);
    HashBytes(h, tx.chaincode);
    HashBytes(h, tx.activity);
    for (const auto& a : tx.args) HashBytes(h, a);
    HashBytes(h, tx.invoker.client_id);
    HashU64(h, static_cast<uint64_t>(tx.status));
    for (const auto& r : tx.rwset.reads) {
      HashBytes(h, r.key());
      HashU64(h, r.version ? r.version->block_num : ~0ULL);
      HashU64(h, r.version ? r.version->tx_num : ~0ULL);
    }
    for (const auto& w : tx.rwset.writes) {
      HashBytes(h, w.key());
      HashBytes(h, w.value);
      HashU64(h, w.is_delete ? 1 : 0);
    }
  }
  return h;
}

}  // namespace blockoptr
