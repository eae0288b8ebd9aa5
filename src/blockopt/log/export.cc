#include "blockopt/log/export.h"

#include <charconv>

#include "common/csv.h"

namespace blockoptr {

namespace {

TxStatus StatusFromName(const std::string& name) {
  if (name == "VALID") return TxStatus::kValid;
  if (name == "MVCC_READ_CONFLICT") return TxStatus::kMvccReadConflict;
  if (name == "PHANTOM_READ_CONFLICT") return TxStatus::kPhantomReadConflict;
  if (name == "ENDORSEMENT_POLICY_FAILURE") {
    return TxStatus::kEndorsementPolicyFailure;
  }
  return TxStatus::kConfig;
}

TxType TypeFromName(const std::string& name) {
  if (name == "read") return TxType::kRead;
  if (name == "write") return TxType::kWrite;
  if (name == "update") return TxType::kUpdate;
  if (name == "range_read") return TxType::kRangeRead;
  return TxType::kDelete;
}

JsonValue::Array StringsToJson(const std::vector<std::string>& v) {
  JsonValue::Array arr;
  arr.reserve(v.size());
  for (const auto& s : v) arr.emplace_back(s);
  return arr;
}

std::vector<std::string> StringsFromJson(const JsonValue& v) {
  std::vector<std::string> out;
  if (!v.is_array()) return out;
  for (const auto& e : v.as_array()) {
    if (e.is_string()) out.push_back(e.as_string());
  }
  return out;
}

}  // namespace

void WriteLogCsv(const BlockchainLog& log, std::ostream& out) {
  CsvWriter(out).WriteRow(
      {"commit_order", "client_timestamp", "activity", "args", "endorsers",
       "invoker_client", "invoker_org", "read_keys", "writes", "delete_keys",
       "status", "tx_type", "chaincode", "block_num", "tx_pos",
       "commit_timestamp"});
  // Rows are formatted into one reused buffer and written in chunks;
  // `joined` is the reused scratch for the '|'-joined fields, which are
  // escaped as a whole like any other field.
  constexpr size_t kChunk = 1 << 16;
  std::string buf;
  buf.reserve(kChunk + 1024);
  std::string joined;
  auto field = [&](std::string_view f) {
    CsvWriter::AppendField(buf, f);
    buf += ',';
  };
  auto list = [&](const std::vector<std::string>& parts) {
    joined.clear();
    for (size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) joined += '|';
      joined += parts[i];
    }
    field(joined);
  };
  auto number = [&](auto v) {
    char tmp[24];
    buf.append(tmp, std::to_chars(tmp, tmp + sizeof(tmp), v).ptr);
    buf += ',';
  };
  // Fixed six decimals, as printf's %.6f; the buffer fits DBL_MAX.
  auto fixed6 = [&](double v) {
    char tmp[384];
    buf.append(tmp, std::to_chars(tmp, tmp + sizeof(tmp), v,
                                  std::chars_format::fixed, 6)
                        .ptr);
  };
  for (const auto& e : log.entries()) {
    number(e.commit_order);
    fixed6(e.client_timestamp);
    buf += ',';
    field(e.activity);
    list(e.args);
    list(e.endorsers);
    field(e.invoker_client);
    field(e.invoker_org);
    list(e.read_keys);
    joined.clear();
    for (size_t i = 0; i < e.writes.size(); ++i) {
      if (i > 0) joined += '|';
      joined += e.writes[i].first;
      joined += '=';
      joined += e.writes[i].second;
    }
    field(joined);
    list(e.delete_keys);
    field(TxStatusName(e.status));
    field(TxTypeName(e.tx_type));
    field(e.chaincode);
    number(e.block_num);
    number(e.tx_pos);
    fixed6(e.commit_timestamp);
    buf += '\n';
    if (buf.size() >= kChunk) {
      out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

JsonValue LogToJson(const BlockchainLog& log) {
  JsonValue::Array rows;
  rows.reserve(log.size());
  for (const auto& e : log.entries()) {
    // Fields in key order, so every insertion appends.
    JsonValue::Object row;
    row.reserve(18);
    row["activity"] = JsonValue(e.activity);
    row["args"] = JsonValue(StringsToJson(e.args));
    row["block_num"] = JsonValue(e.block_num);
    row["chaincode"] = JsonValue(e.chaincode);
    row["client_timestamp"] = JsonValue(e.client_timestamp);
    row["commit_order"] = JsonValue(e.commit_order);
    row["commit_timestamp"] = JsonValue(e.commit_timestamp);
    row["delete_keys"] = JsonValue(StringsToJson(e.delete_keys));
    row["endorsers"] = JsonValue(StringsToJson(e.endorsers));
    row["invoker_client"] = JsonValue(e.invoker_client);
    row["invoker_org"] = JsonValue(e.invoker_org);
    JsonValue::Array ranges;
    ranges.reserve(e.range_bounds.size());
    for (const auto& [s, t] : e.range_bounds) {
      JsonValue::Object r;
      r.reserve(2);
      r["end"] = JsonValue(t);
      r["start"] = JsonValue(s);
      ranges.emplace_back(std::move(r));
    }
    row["range_bounds"] = JsonValue(std::move(ranges));
    row["read_keys"] = JsonValue(StringsToJson(e.read_keys));
    row["status"] = JsonValue(std::string(TxStatusName(e.status)));
    row["tx_id"] = JsonValue(e.tx_id);
    row["tx_pos"] = JsonValue(static_cast<uint64_t>(e.tx_pos));
    row["tx_type"] = JsonValue(std::string(TxTypeName(e.tx_type)));
    JsonValue::Array writes;
    writes.reserve(e.writes.size());
    for (const auto& [k, v] : e.writes) {
      JsonValue::Object w;
      w.reserve(2);
      w["key"] = JsonValue(k);
      w["value"] = JsonValue(v);
      writes.emplace_back(std::move(w));
    }
    row["writes"] = JsonValue(std::move(writes));
    rows.emplace_back(std::move(row));
  }
  JsonValue::Object doc;
  doc["entries"] = JsonValue(std::move(rows));
  return JsonValue(std::move(doc));
}

Result<BlockchainLog> ParseLogJson(const JsonValue& json) {
  if (!json.is_object() || !json["entries"].is_array()) {
    return Status::InvalidArgument("log JSON must have an 'entries' array");
  }
  std::vector<BlockchainLogEntry> entries;
  for (const auto& row : json["entries"].as_array()) {
    if (!row.is_object()) {
      return Status::InvalidArgument("log entry must be an object");
    }
    BlockchainLogEntry e;
    e.commit_order = static_cast<uint64_t>(row["commit_order"].as_number());
    e.client_timestamp = row["client_timestamp"].as_number();
    e.activity = row["activity"].as_string();
    e.args = StringsFromJson(row["args"]);
    e.endorsers = StringsFromJson(row["endorsers"]);
    e.invoker_client = row["invoker_client"].as_string();
    e.invoker_org = row["invoker_org"].as_string();
    e.read_keys = StringsFromJson(row["read_keys"]);
    if (row["writes"].is_array()) {
      for (const auto& w : row["writes"].as_array()) {
        e.writes.emplace_back(w["key"].as_string(), w["value"].as_string());
      }
    }
    e.delete_keys = StringsFromJson(row["delete_keys"]);
    if (row["range_bounds"].is_array()) {
      for (const auto& r : row["range_bounds"].as_array()) {
        e.range_bounds.emplace_back(r["start"].as_string(),
                                    r["end"].as_string());
      }
    }
    e.status = StatusFromName(row["status"].as_string());
    e.tx_type = TypeFromName(row["tx_type"].as_string());
    e.chaincode = row["chaincode"].as_string();
    e.tx_id = static_cast<uint64_t>(row["tx_id"].as_number());
    e.block_num = static_cast<uint64_t>(row["block_num"].as_number());
    e.tx_pos = static_cast<uint32_t>(row["tx_pos"].as_number());
    e.commit_timestamp = row["commit_timestamp"].as_number();
    entries.push_back(std::move(e));
  }
  return BlockchainLog(std::move(entries));
}

}  // namespace blockoptr
