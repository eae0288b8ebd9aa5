#include "blockopt/eventlog/xes_export.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace blockoptr {

namespace {

/// Appends `s` to `out` escaped as XML attribute/text content.
void AppendXmlEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
}

/// Renders a virtual-time offset as an ISO-8601 timestamp anchored at an
/// arbitrary epoch (XES requires xs:dateTime).
void AppendXesTimestamp(std::string& out, double seconds) {
  double whole = std::floor(seconds);
  int millis = static_cast<int>(std::round((seconds - whole) * 1000));
  long total = static_cast<long>(whole);
  int hour = static_cast<int>(total / 3600) % 24;
  int day = 1 + static_cast<int>(total / 86400);
  int min = static_cast<int>(total / 60) % 60;
  int sec = static_cast<int>(total % 60);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "2026-01-%02dT%02d:%02d:%02d.%03d+00:00",
                std::min(day, 28), hour, min, sec, millis);
  out += buf;
}

}  // namespace

void WriteXes(const EventLog& log, std::ostream& out) {
  // The document is formatted into one buffer and written in chunks.
  constexpr size_t kChunk = 1 << 16;
  std::string buf;
  buf.reserve(kChunk + 1024);
  auto flush = [&] {
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
  };
  buf +=
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<log xes.version=\"1.0\" xmlns=\"http://www.xes-standard.org/\">\n"
      "  <extension name=\"Concept\" prefix=\"concept\" "
      "uri=\"http://www.xes-standard.org/concept.xesext\"/>\n"
      "  <extension name=\"Time\" prefix=\"time\" "
      "uri=\"http://www.xes-standard.org/time.xesext\"/>\n"
      "  <string key=\"concept:name\" value=\"blockoptr-event-log\"/>\n";

  for (const auto& [case_id, indices] : log.cases()) {
    buf += "  <trace>\n    <string key=\"concept:name\" value=\"";
    AppendXmlEscaped(buf, case_id);
    buf += "\"/>\n";
    for (size_t i : indices) {
      const Event& ev = log.events()[i];
      buf += "    <event>\n      <string key=\"concept:name\" value=\"";
      AppendXmlEscaped(buf, ev.activity);
      buf += "\"/>\n      <date key=\"time:timestamp\" value=\"";
      AppendXesTimestamp(buf, ev.commit_timestamp);
      buf += "\"/>\n      <int key=\"blockoptr:commit_order\" value=\"";
      char order[24];
      buf.append(order, std::to_chars(order, order + sizeof(order),
                                      ev.commit_order)
                            .ptr);
      buf += "\"/>\n      <string key=\"blockoptr:status\" value=\"";
      buf += TxStatusName(ev.status);
      buf += "\"/>\n    </event>\n";
      if (buf.size() >= kChunk) flush();
    }
    buf += "  </trace>\n";
  }
  buf += "</log>\n";
  flush();
}

}  // namespace blockoptr
