#include "common/csv.h"

namespace blockoptr {

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << EscapeField(fields[i]);
  }
  out_ << '\n';
}

std::string CsvWriter::EscapeField(std::string_view field) {
  std::string out;
  AppendField(out, field);
  return out;
}

void CsvWriter::AppendField(std::string& out, std::string_view field) {
  bool needs_quotes = false;
  for (char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) {
    out += field;
    return;
  }
  out += '"';
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
}

Result<std::vector<std::vector<std::string>>> CsvReader::ParseDocument(
    std::string_view text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;

  auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_row = [&] {
    end_field();
    rows.push_back(std::move(row));
    row.clear();
  };

  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        if (field.empty() && !field_started) {
          in_quotes = true;
          field_started = true;
        } else {
          return Status::InvalidArgument(
              "unexpected quote inside unquoted CSV field");
        }
        break;
      case ',':
        end_field();
        break;
      case '\r':
        // Swallow; `\r\n` handled by the `\n` branch.
        break;
      case '\n':
        end_row();
        break;
      default:
        field += c;
        field_started = true;
        break;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted CSV field");
  }
  // Final row without trailing newline.
  if (field_started || !field.empty() || !row.empty()) end_row();
  return rows;
}

Result<std::vector<std::string>> CsvReader::ParseLine(std::string_view line) {
  // Strip one trailing newline, then reject any remaining newline (even a
  // quoted one) — a "line" must be newline-free.
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  if (line.find('\n') != std::string_view::npos ||
      line.find('\r') != std::string_view::npos) {
    return Status::InvalidArgument("line contains embedded newlines");
  }
  auto doc = ParseDocument(line);
  if (!doc.ok()) return doc.status();
  if (doc->empty()) return std::vector<std::string>{};
  return std::move((*doc)[0]);
}

}  // namespace blockoptr
