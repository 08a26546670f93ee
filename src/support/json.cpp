#include "support/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/assert.h"

namespace fjs {

JsonValue JsonValue::null() { return JsonValue(); }

JsonValue JsonValue::boolean(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::number(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::unsigned_integer(std::uint64_t value) {
  JsonValue v;
  v.kind_ = Kind::kUnsigned;
  v.unsigned_ = value;
  return v;
}

JsonValue JsonValue::string(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

bool JsonValue::as_bool() const {
  FJS_REQUIRE(kind_ == Kind::kBool, "JsonValue: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ == Kind::kUnsigned) {
    return static_cast<double>(unsigned_);
  }
  FJS_REQUIRE(kind_ == Kind::kNumber, "JsonValue: not a number");
  return number_;
}

std::uint64_t JsonValue::as_unsigned() const {
  if (kind_ == Kind::kUnsigned) {
    return unsigned_;
  }
  FJS_REQUIRE(kind_ == Kind::kNumber && number_ >= 0.0 &&
                  number_ <= 0x1p53 && std::trunc(number_) == number_,
              "JsonValue: not an exact unsigned integer");
  return static_cast<std::uint64_t>(number_);
}

const std::string& JsonValue::as_string() const {
  FJS_REQUIRE(kind_ == Kind::kString, "JsonValue: not a string");
  return string_;
}

std::size_t JsonValue::size() const {
  FJS_REQUIRE(kind_ == Kind::kArray || kind_ == Kind::kObject,
              "JsonValue: size() needs an array or object");
  return kind_ == Kind::kArray ? items_.size() : members_.size();
}

const JsonValue& JsonValue::at(std::size_t index) const {
  FJS_REQUIRE(kind_ == Kind::kArray, "JsonValue: not an array");
  FJS_REQUIRE(index < items_.size(), "JsonValue: array index out of range");
  return items_[index];
}

void JsonValue::push_back(JsonValue value) {
  FJS_REQUIRE(kind_ == Kind::kArray, "JsonValue: not an array");
  items_.push_back(std::move(value));
}

void JsonValue::set(const std::string& key, JsonValue value) {
  FJS_REQUIRE(kind_ == Kind::kObject, "JsonValue: not an object");
  for (auto& member : members_) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  members_.emplace_back(key, std::move(value));
}

const JsonValue& JsonValue::get(const std::string& key) const {
  const JsonValue* found = find(key);
  FJS_REQUIRE(found != nullptr, "JsonValue: missing key '" + key + "'");
  return *found;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  FJS_REQUIRE(kind_ == Kind::kObject, "JsonValue: not an object");
  for (const auto& member : members_) {
    if (member.first == key) {
      return &member.second;
    }
  }
  return nullptr;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  FJS_REQUIRE(kind_ == Kind::kObject, "JsonValue: not an object");
  return members_;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

namespace {

// Integral values with |v| <= 2^53 (every one exact in a double) print as
// plain integers: "2780", not "2.78e+03". Anything else takes the shortest
// representation that parses back to the same double: try increasing
// precision until strtod round-trips.
std::string format_number(double value) {
  FJS_REQUIRE(std::isfinite(value),
              "JsonValue: JSON cannot represent nan/inf");
  char buf[32];
  if (std::trunc(value) == value && std::fabs(value) <= 0x1p53) {
    std::snprintf(buf, sizeof buf, "%.0f", value);
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) {
      break;
    }
  }
  return buf;
}

}  // namespace

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  const auto newline_pad = [&](int levels) {
    if (indent > 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * levels), ' ');
    }
  };
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: out += format_number(number_); break;
    case Kind::kUnsigned: out += std::to_string(unsigned_); break;
    case Kind::kString: out += json_escape(string_); break;
    case Kind::kArray: {
      if (items_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) {
          out += ',';
        }
        newline_pad(depth + 1);
        items_[i].dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) {
          out += ',';
        }
        newline_pad(depth + 1);
        out += json_escape(members_[i].first);
        out += indent > 0 ? ": " : ":";
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  if (indent > 0) {
    out += '\n';
  }
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_ws();
    FJS_REQUIRE(pos_ == text_.size(),
                "JSON parse: trailing characters at offset " +
                    std::to_string(pos_));
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    FJS_REQUIRE(pos_ < text_.size(), "JSON parse: unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    FJS_REQUIRE(peek() == c, std::string("JSON parse: expected '") + c +
                                 "' at offset " + std::to_string(pos_));
    ++pos_;
  }

  bool consume_literal(const std::string& literal) {
    if (text_.compare(pos_, literal.size(), literal) == 0) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::string(parse_string());
      case 't':
        FJS_REQUIRE(consume_literal("true"), "JSON parse: bad literal");
        return JsonValue::boolean(true);
      case 'f':
        FJS_REQUIRE(consume_literal("false"), "JSON parse: bad literal");
        return JsonValue::boolean(false);
      case 'n':
        FJS_REQUIRE(consume_literal("null"), "JSON parse: bad literal");
        return JsonValue::null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue obj = JsonValue::object();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      const std::string key = (peek(), parse_string());
      expect(':');
      obj.set(key, parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue arr = JsonValue::array();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      FJS_REQUIRE(pos_ < text_.size(), "JSON parse: dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          FJS_REQUIRE(pos_ + 4 <= text_.size(),
                      "JSON parse: truncated \\u escape");
          const unsigned long code =
              std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          // Only Latin-1 range is produced by our writer; encode as UTF-8.
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
          FJS_REQUIRE(false, std::string("JSON parse: bad escape '\\") + esc +
                                 "'");
      }
    }
    FJS_REQUIRE(false, "JSON parse: unterminated string");
    return out;  // unreachable
  }

  JsonValue parse_number() {
    skip_ws();
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    // Plain digits (no sign, fraction or exponent) that fit in 64 bits are
    // an exact unsigned integer; everything else is a double.
    std::size_t digits = 0;
    while (std::isdigit(static_cast<unsigned char>(begin[digits]))) {
      ++digits;
    }
    const char next = begin[digits];
    if (digits > 0 && next != '.' && next != 'e' && next != 'E') {
      errno = 0;
      const unsigned long long value = std::strtoull(begin, &end, 10);
      if (errno != ERANGE) {
        pos_ += digits;
        return JsonValue::unsigned_integer(value);
      }
    }
    const double value = std::strtod(begin, &end);
    FJS_REQUIRE(end != begin, "JSON parse: expected a value at offset " +
                                  std::to_string(pos_));
    pos_ += static_cast<std::size_t>(end - begin);
    return JsonValue::number(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(const std::string& text) {
  return Parser(text).parse_document();
}

namespace {

bool same_number(double d, std::uint64_t u) {
  return d >= 0.0 && d < 0x1p64 && std::trunc(d) == d &&
         static_cast<std::uint64_t>(d) == u;
}

}  // namespace

bool operator==(const JsonValue& a, const JsonValue& b) {
  using Kind = JsonValue::Kind;
  if (a.kind_ == Kind::kNumber && b.kind_ == Kind::kUnsigned) {
    return same_number(a.number_, b.unsigned_);
  }
  if (a.kind_ == Kind::kUnsigned && b.kind_ == Kind::kNumber) {
    return same_number(b.number_, a.unsigned_);
  }
  if (a.kind_ != b.kind_) {
    return false;
  }
  switch (a.kind_) {
    case JsonValue::Kind::kNull: return true;
    case JsonValue::Kind::kBool: return a.bool_ == b.bool_;
    case JsonValue::Kind::kNumber: return a.number_ == b.number_;
    case JsonValue::Kind::kUnsigned: return a.unsigned_ == b.unsigned_;
    case JsonValue::Kind::kString: return a.string_ == b.string_;
    case JsonValue::Kind::kArray: return a.items_ == b.items_;
    case JsonValue::Kind::kObject: return a.members_ == b.members_;
  }
  return false;
}

}  // namespace fjs
