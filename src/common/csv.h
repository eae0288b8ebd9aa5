#ifndef BLOCKOPTR_COMMON_CSV_H_
#define BLOCKOPTR_COMMON_CSV_H_

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace blockoptr {

/// RFC-4180-style CSV writer. Fields containing commas, quotes, or newlines
/// are quoted, embedded quotes doubled. The blockchain-log and event-log
/// exporters (paper §4.1–4.2) use this to emit analysis-ready CSV.
class CsvWriter {
 public:
  /// Writes to `out`, which must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Writes one row; escapes each field as needed.
  void WriteRow(const std::vector<std::string>& fields);

  /// Escapes one field per RFC 4180 (exposed for testing).
  static std::string EscapeField(std::string_view field);

  /// Appends one field to `out`, escaped per RFC 4180: the one escaper
  /// behind WriteRow and EscapeField, for exporters that format whole
  /// rows into their own buffer.
  static void AppendField(std::string& out, std::string_view field);

 private:
  std::ostream& out_;
};

/// Minimal CSV parser matching the writer's dialect. Parses quoted fields,
/// doubled quotes, and embedded newlines inside quotes.
class CsvReader {
 public:
  /// Parses an entire CSV document into rows of fields.
  static Result<std::vector<std::vector<std::string>>> ParseDocument(
      std::string_view text);

  /// Parses a single line that is known to contain no embedded newlines.
  static Result<std::vector<std::string>> ParseLine(std::string_view line);
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_COMMON_CSV_H_
