// Minimal JSON document model used by the experiment runner for its
// manifest/verdict artifacts (and by tests to round-trip them).
//
// Deliberately small: ordered objects, arrays, strings, numbers, bools,
// null. Numbers come in two kinds: doubles, emitted with enough precision
// to round-trip exactly (%.17g-style), and exact unsigned 64-bit integers
// (seeds), which never pass through a double. Object keys keep insertion
// order so a dumped document is byte-stable across runs — the property
// the determinism tests pin down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace fjs {

/// A JSON value. Construct with the static factories, compose with
/// `set`/`push_back`, serialize with `dump`, read back with `parse`.
class JsonValue {
 public:
  enum class Kind {
    kNull, kBool, kNumber, kUnsigned, kString, kArray, kObject
  };

  JsonValue() : kind_(Kind::kNull) {}

  static JsonValue null();
  static JsonValue boolean(bool value);
  static JsonValue number(double value);
  /// Exact unsigned integer: written as plain digits, and any plain-digit
  /// literal that fits in 64 bits parses back as this kind.
  static JsonValue unsigned_integer(std::uint64_t value);
  static JsonValue string(std::string value);
  static JsonValue array();
  static JsonValue object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Accessors; throw AssertionError on a kind mismatch. as_number reads
  /// either number kind (an unsigned above 2^53 rounds); as_unsigned reads
  /// an unsigned, or a double holding an integer in [0, 2^53].
  bool as_bool() const;
  double as_number() const;
  std::uint64_t as_unsigned() const;
  const std::string& as_string() const;

  /// Array access.
  std::size_t size() const;
  const JsonValue& at(std::size_t index) const;
  void push_back(JsonValue value);

  /// Object access. `set` overwrites an existing key in place (keeping
  /// its position); `get` throws on a missing key, `find` returns
  /// nullptr instead.
  void set(const std::string& key, JsonValue value);
  const JsonValue& get(const std::string& key) const;
  const JsonValue* find(const std::string& key) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Serializes the document. indent = 0 renders compact single-line
  /// JSON; indent > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 2) const;

  /// Parses a JSON document; throws AssertionError on malformed input.
  static JsonValue parse(const std::string& text);

  /// Deep structural equality. Numbers compare by exact value across the
  /// two kinds, so a document equals its own dump parsed back.
  friend bool operator==(const JsonValue& a, const JsonValue& b);
  friend bool operator!=(const JsonValue& a, const JsonValue& b) {
    return !(a == b);
  }

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::uint64_t unsigned_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Escapes a string for embedding in JSON (adds surrounding quotes).
std::string json_escape(const std::string& text);

}  // namespace fjs
