#include "chaincode/tx_context.h"

#include <algorithm>
#include <cassert>

namespace blockoptr {

TxContext::TxContext(const VersionedStore* store, std::string ns)
    : store_(store) {
  ns_stack_.push_back(std::move(ns));
}

std::string TxContext::Namespaced(std::string_view key) const {
  return ns_stack_.back() + "~" + std::string(key);
}

KeyId TxContext::InternNamespaced(std::string_view key) {
  key_buf_.assign(ns_stack_.back());
  key_buf_ += '~';
  key_buf_ += key;
  return GlobalKeyInterner().Intern(key_buf_);
}

std::optional<std::string> TxContext::GetState(std::string_view key) {
  const KeyId id = InternNamespaced(key);
  const VersionedValue* vv = store_->PeekById(id);
  // One read item per key (Fabric records the first observed version).
  if (std::none_of(rwset_.reads.begin(), rwset_.reads.end(),
                   [id](const ReadItem& r) { return r.id == id; })) {
    rwset_.reads.push_back(ReadItem{
        id, vv != nullptr ? std::optional<Version>(vv->version)
                          : std::nullopt});
  }
  if (vv == nullptr) return std::nullopt;
  return vv->value;
}

WriteItem& TxContext::WriteSlot(KeyId id) {
  auto it = std::find_if(rwset_.writes.begin(), rwset_.writes.end(),
                         [id](const WriteItem& w) { return w.id == id; });
  if (it != rwset_.writes.end()) return *it;
  return rwset_.writes.emplace_back(WriteItem{id, "", /*is_delete=*/false});
}

void TxContext::PutState(std::string_view key, std::string_view value) {
  WriteItem& w = WriteSlot(InternNamespaced(key));
  w.value.assign(value);
  w.is_delete = false;
}

void TxContext::DeleteState(std::string_view key) {
  WriteItem& w = WriteSlot(InternNamespaced(key));
  w.value.clear();
  w.is_delete = true;
}

void TxContext::GetStateByRange(std::string_view start_key,
                                std::string_view end_key,
                                const RangeVisitor& visit) {
  RangeQueryInfo rq;
  rq.start_key = Namespaced(start_key);
  // An empty end key scans to the end of this chaincode's namespace; the
  // '~' separator sorts below 0x7F so "<ns>\x7f" upper-bounds it.
  rq.end_key =
      end_key.empty() ? ns_stack_.back() + "\x7f" : Namespaced(end_key);

  const size_t ns_prefix = ns_stack_.back().size() + 1;
  store_->RangeVisit(rq.start_key, rq.end_key,
                     [&](std::string_view k, const VersionedValue& vv) {
                       rq.results.push_back(RangeResult{vv.id, vv.version});
                       visit(k.substr(ns_prefix), vv.value);
                       return true;
                     });
  rwset_.range_queries.push_back(std::move(rq));
}

void TxContext::PushNamespace(std::string ns) {
  ns_stack_.push_back(std::move(ns));
}

void TxContext::PopNamespace() {
  assert(ns_stack_.size() > 1);
  ns_stack_.pop_back();
}

}  // namespace blockoptr
