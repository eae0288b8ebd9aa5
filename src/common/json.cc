#include "common/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>

namespace blockoptr {

namespace {

const JsonValue& NullValue() {
  static const JsonValue* kNull = new JsonValue(nullptr);
  return *kNull;
}

/// Deepest array/object nesting Parse accepts. Each level is a few stack
/// frames of recursive descent; the cap keeps hostile input such as 100k
/// opening brackets an InvalidArgument instead of a stack overflow.
constexpr int kMaxDepth = 512;

/// Recursive-descent JSON parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWs();
    auto v = ParseValue();
    if (!v.ok()) return v;
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Fail(const std::string& what) {
    return Status::InvalidArgument(what + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        auto s = ParseString();
        if (!s.ok()) return s.status();
        return JsonValue(std::move(*s));
      }
      case 't':
        return ParseLiteral("true", JsonValue(true));
      case 'f':
        return ParseLiteral("false", JsonValue(false));
      case 'n':
        return ParseLiteral("null", JsonValue(nullptr));
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseLiteral(std::string_view lit, JsonValue value) {
    if (text_.substr(pos_, lit.size()) != lit) return Fail("invalid literal");
    pos_ += lit.size();
    return value;
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("invalid number");
    std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double d = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return Fail("invalid number");
    return JsonValue(d);
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Status::InvalidArgument("expected string");
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Fail("bad \\u escape");
            }
            // UTF-8 encode (BMP only; surrogate pairs not needed for logs).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Fail("bad escape character");
        }
      } else {
        out += c;
      }
    }
    return Fail("unterminated string");
  }

  /// Counts one level of nesting for the lifetime of a ParseArray or
  /// ParseObject call.
  struct DepthGuard {
    explicit DepthGuard(int& depth) : depth_(depth) { ++depth_; }
    ~DepthGuard() { --depth_; }
    int& depth_;
  };

  Result<JsonValue> ParseArray() {
    DepthGuard guard(depth_);
    if (depth_ > kMaxDepth) return Fail("nesting too deep");
    Consume('[');
    JsonValue::Array arr;
    SkipWs();
    if (Consume(']')) return JsonValue(std::move(arr));
    for (;;) {
      SkipWs();
      auto v = ParseValue();
      if (!v.ok()) return v;
      arr.push_back(std::move(*v));
      SkipWs();
      if (Consume(']')) return JsonValue(std::move(arr));
      if (!Consume(',')) return Fail("expected ',' or ']' in array");
    }
  }

  /// Collects the members in document order and sorts them once at the
  /// end, so unsorted or large objects cost O(n log n).
  Result<JsonValue> ParseObject() {
    DepthGuard guard(depth_);
    if (depth_ > kMaxDepth) return Fail("nesting too deep");
    Consume('{');
    std::vector<JsonValue::Object::value_type> members;
    auto done = [&] {
      return JsonValue(JsonValue::Object(std::move(members)));
    };
    SkipWs();
    if (Consume('}')) return done();
    for (;;) {
      SkipWs();
      auto key = ParseString();
      if (!key.ok()) return key.status();
      SkipWs();
      if (!Consume(':')) return Fail("expected ':' in object");
      SkipWs();
      auto v = ParseValue();
      if (!v.ok()) return v;
      members.emplace_back(std::move(*key), std::move(*v));
      SkipWs();
      if (Consume('}')) return done();
      if (!Consume(',')) return Fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

/// Appends to a string through a raw cursor. The string is grown in
/// zero-filled steps ahead of the cursor and trimmed to the bytes written
/// when the writer goes away, so each write is one room check and a copy
/// instead of a std::string append.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out), size_(out.size()) {}
  ~Writer() { out_.resize(size_); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// A cursor with room for `n` more bytes; hand the end of what was
  /// written to Commit.
  char* Room(size_t n) {
    if (out_.size() - size_ < n) Grow(n);
    return out_.data() + size_;
  }
  void Commit(const char* end) {
    size_ = static_cast<size_t>(end - out_.data());
  }

  void Put(std::string_view s) {
    char* p = Room(s.size());
    std::memcpy(p, s.data(), s.size());
    Commit(p + s.size());
  }

  /// A newline and `spaces` of indentation.
  void Newline(size_t spaces) {
    char* p = Room(spaces + 1);
    *p++ = '\n';
    std::memset(p, ' ', spaces);
    Commit(p + spaces);
  }

  /// Integers below 1e15 print as integers; every other finite number
  /// round-trips at 17 significant digits (to_chars' general format with
  /// a precision is specified as printf's %.17g). JSON has no NaN or
  /// infinity, so those print as null.
  void Number(double d) {
    if (!std::isfinite(d)) {
      Put("null");
      return;
    }
    char* p = Room(32);
    Commit(d == std::floor(d) && std::abs(d) < 1e15
               ? std::to_chars(p, p + 32, static_cast<long long>(d)).ptr
               : std::to_chars(p, p + 32, d, std::chars_format::general, 17)
                     .ptr);
  }

  /// The one JSON string escaper: `s` quoted, with '"', '\' and control
  /// characters escaped.
  void Quoted(std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    char* p = Room(2 + 6 * s.size());  // every byte escaped as \u00XX
    *p++ = '"';
    for (char ch : s) {
      const auto c = static_cast<unsigned char>(ch);
      if (c >= 0x20 && c != '"' && c != '\\') {
        *p++ = ch;
        continue;
      }
      *p++ = '\\';
      switch (c) {
        case '"': *p++ = '"'; break;
        case '\\': *p++ = '\\'; break;
        case '\b': *p++ = 'b'; break;
        case '\f': *p++ = 'f'; break;
        case '\n': *p++ = 'n'; break;
        case '\r': *p++ = 'r'; break;
        case '\t': *p++ = 't'; break;
        default:
          p = std::copy_n("u00", 3, p);
          *p++ = kHex[c >> 4];
          *p++ = kHex[c & 0xF];
      }
    }
    *p++ = '"';
    Commit(p);
  }

 private:
  /// Capacity doubles as for any append, but only a step of a quarter of
  /// the output is zero-filled past the cursor, so pages beyond it are
  /// never touched and peak memory stays that of a plain append.
  void Grow(size_t n) {
    const size_t want = size_ + n + 4096 + size_ / 4;
    if (want > out_.capacity()) {
      out_.reserve(std::max(want, 2 * out_.capacity()));
    }
    out_.resize(want);
  }

  std::string& out_;
  size_t size_;  // bytes written; out_ holds zero fill beyond them
};

/// Writes `v` at nesting `depth`; `indent` > 0 pretty-prints.
void Write(Writer& w, const JsonValue& v, int indent, int depth) {
  const auto newline = [&](int d) {
    if (indent > 0) w.Newline(static_cast<size_t>(indent * d));
  };
  if (v.is_null()) {
    w.Put("null");
  } else if (v.is_bool()) {
    w.Put(v.as_bool() ? "true" : "false");
  } else if (v.is_number()) {
    w.Number(v.as_number());
  } else if (v.is_string()) {
    w.Quoted(v.as_string());
  } else if (v.is_array()) {
    const auto& arr = v.as_array();
    if (arr.empty()) {
      w.Put("[]");
      return;
    }
    w.Put("[");
    for (size_t i = 0; i < arr.size(); ++i) {
      if (i > 0) w.Put(",");
      newline(depth + 1);
      Write(w, arr[i], indent, depth + 1);
    }
    newline(depth);
    w.Put("]");
  } else {
    const auto& obj = v.as_object();
    if (obj.empty()) {
      w.Put("{}");
      return;
    }
    w.Put("{");
    bool first = true;
    for (const auto& [key, value] : obj) {
      if (!first) w.Put(",");
      first = false;
      newline(depth + 1);
      w.Quoted(key);
      w.Put(indent > 0 ? ": " : ":");
      Write(w, value, indent, depth + 1);
    }
    newline(depth);
    w.Put("}");
  }
}

}  // namespace

JsonValue::Object::Object(std::vector<value_type> entries)
    : entries_(std::move(entries)) {
  // Strictly increasing keys (every document this library dumps) need
  // neither the sort nor the duplicate pass.
  if (std::adjacent_find(begin(), end(),
                         [](const value_type& a, const value_type& b) {
                           return !(a.first < b.first);
                         }) == end()) {
    return;
  }
  std::stable_sort(begin(), end(), [](const value_type& a,
                                      const value_type& b) {
    return a.first < b.first;
  });
  // Keep the last of each run of equal keys.
  auto out = begin();
  for (auto it = begin(); it != end(); ++it) {
    const auto next = std::next(it);
    if (next != end() && next->first == it->first) continue;
    if (out != it) *out = std::move(*it);
    ++out;
  }
  entries_.erase(out, end());
}

JsonValue::Object::iterator JsonValue::Object::LowerBound(
    std::string_view key) {
  return std::lower_bound(
      begin(), end(), key,
      [](const value_type& e, std::string_view k) { return e.first < k; });
}

JsonValue& JsonValue::Object::Insert(std::string_view key) {
  auto it = LowerBound(key);
  if (it != end() && it->first == key) return it->second;
  return entries_.emplace(it, std::string(key), nullptr)->second;
}

JsonValue::Object::iterator JsonValue::Object::find(std::string_view key) {
  auto it = LowerBound(key);
  return it != end() && it->first == key ? it : end();
}

JsonValue::Object::const_iterator JsonValue::Object::find(
    std::string_view key) const {
  return const_cast<Object*>(this)->find(key);
}

const JsonValue& JsonValue::operator[](const std::string& key) const {
  if (!is_object()) return NullValue();
  auto it = as_object().find(key);
  if (it == as_object().end()) return NullValue();
  return it->second;
}

std::string JsonValue::QuoteString(std::string_view s) {
  std::string out;
  Writer(out).Quoted(s);
  return out;
}

std::string JsonValue::Dump() const {
  std::string out;
  {
    Writer w(out);  // trims `out` when it goes away
    Write(w, *this, /*indent=*/0, /*depth=*/0);
  }
  return out;
}

std::string JsonValue::DumpPretty() const {
  std::string out;
  {
    Writer w(out);  // trims `out` when it goes away
    Write(w, *this, /*indent=*/2, /*depth=*/0);
  }
  return out;
}

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace blockoptr
