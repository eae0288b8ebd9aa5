#ifndef BLOCKOPTR_COMMON_JSON_H_
#define BLOCKOPTR_COMMON_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace blockoptr {

/// A small self-contained JSON document model. BlockOptR saves the raw
/// blockchain as JSON before preprocessing (paper §4.1); this module gives
/// the library a dependency-free way to serialize/parse those snapshots.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;

  /// A JSON object as one flat vector of (key, value) entries kept sorted
  /// by key, so it iterates in key order like a std::map (golden files
  /// depend on that order) at one allocation per object. Unlike a
  /// std::map, inserting a key may move every entry: it invalidates all
  /// references and iterators into the object. Keys must not be changed
  /// through an iterator.
  class Object {
   public:
    using value_type = std::pair<std::string, JsonValue>;
    using iterator = std::vector<value_type>::iterator;
    using const_iterator = std::vector<value_type>::const_iterator;

    Object() = default;
    /// Builds an object from entries in any order. Equal keys keep the
    /// last value, as repeated std::map::operator[] assignments would.
    explicit Object(std::vector<value_type> entries);

    /// Returns the value under `key`, inserting null if it is missing.
    /// A key that sorts after every present key is appended in O(1);
    /// any other new key is inserted in place.
    JsonValue& operator[](std::string_view key) {
      if (entries_.empty() || entries_.back().first < key) {
        return entries_.emplace_back(std::string(key), nullptr).second;
      }
      return Insert(key);
    }

    iterator find(std::string_view key);
    const_iterator find(std::string_view key) const;
    size_t count(std::string_view key) const { return find(key) != end(); }

    iterator begin() { return entries_.begin(); }
    iterator end() { return entries_.end(); }
    const_iterator begin() const { return entries_.begin(); }
    const_iterator end() const { return entries_.end(); }
    size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }
    void reserve(size_t n) { entries_.reserve(n); }

   private:
    iterator LowerBound(std::string_view key);
    /// operator[]'s slow path: `key` found or inserted in place.
    JsonValue& Insert(std::string_view key);

    std::vector<value_type> entries_;
  };

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}            // NOLINT
  JsonValue(bool b) : value_(b) {}                          // NOLINT
  JsonValue(double d) : value_(d) {}                        // NOLINT
  JsonValue(int i) : value_(static_cast<double>(i)) {}      // NOLINT
  JsonValue(int64_t i) : value_(static_cast<double>(i)) {}  // NOLINT
  JsonValue(uint64_t i) : value_(static_cast<double>(i)) {} // NOLINT
  JsonValue(const char* s) : value_(std::string(s)) {}      // NOLINT
  JsonValue(std::string s) : value_(std::move(s)) {}        // NOLINT
  JsonValue(Array a) : value_(std::move(a)) {}              // NOLINT
  JsonValue(Object o) : value_(std::move(o)) {}             // NOLINT

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  bool as_bool() const { return std::get<bool>(value_); }
  double as_number() const { return std::get<double>(value_); }
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const Array& as_array() const { return std::get<Array>(value_); }
  Array& as_array() { return std::get<Array>(value_); }
  const Object& as_object() const { return std::get<Object>(value_); }
  Object& as_object() { return std::get<Object>(value_); }

  /// Object field access; returns a shared null for missing keys.
  const JsonValue& operator[](const std::string& key) const;

  /// Serializes to compact JSON (no whitespace). JSON has no NaN or
  /// infinity: non-finite numbers are written as null.
  std::string Dump() const;

  /// Serializes with 2-space indentation.
  std::string DumpPretty() const;

  /// Parses a JSON document. Numbers are stored as doubles. Documents
  /// nested deeper than 512 arrays/objects are rejected as
  /// InvalidArgument rather than recursed into.
  static Result<JsonValue> Parse(std::string_view text);

  /// Escapes a string for embedding in JSON (without surrounding quotes
  /// added — the quotes are included in the return value).
  static std::string QuoteString(std::string_view s);

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_COMMON_JSON_H_
