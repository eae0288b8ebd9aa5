#include "blockopt/log/preprocess.h"

#include <algorithm>

namespace blockoptr {

BlockchainLog ExtractRawLog(const Ledger& ledger) {
  std::vector<BlockchainLogEntry> entries;
  entries.reserve(ledger.NumTransactions());
  for (const auto& block : ledger.blocks()) {
    uint32_t pos = 0;
    for (const auto& tx : block.transactions) {
      BlockchainLog::EntryFromTransaction(block, pos++, tx,
                                          entries.emplace_back());
    }
  }
  // Raw commit order includes config transactions.
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i].commit_order = i;
  }
  return BlockchainLog(std::move(entries));
}

void CleanLog(BlockchainLog& log) {
  auto& entries = log.mutable_entries();
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [](const BlockchainLogEntry& e) {
                                 return e.is_config ||
                                        e.status == TxStatus::kConfig;
                               }),
                entries.end());
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i].commit_order = i;
  }
}

BlockchainLog ExtractBlockchainLog(const Ledger& ledger) {
  BlockchainLog log = ExtractRawLog(ledger);
  CleanLog(log);
  return log;
}

}  // namespace blockoptr
