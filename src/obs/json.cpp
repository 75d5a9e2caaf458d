#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace witag::obs::json {
namespace {

[[noreturn]] void fail(std::string_view what, std::size_t pos) {
  throw std::invalid_argument("json: " + std::string(what) + " at byte " +
                              std::to_string(pos));
}

/// Recursive-descent parser over a string_view with an explicit cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    skip_ws();
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content", pos_);
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  std::size_t pos_ = 0;

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (take() != c) fail(std::string("expected '") + c + "'", pos_ - 1);
  }

  void expect_word(std::string_view word) {
    for (const char c : word) {
      if (pos_ >= text_.size() || text_[pos_] != c) fail("bad literal", pos_);
      ++pos_;
    }
  }

  Value parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep", pos_);
    switch (peek()) {
      case 'n':
        expect_word("null");
        return Value();
      case 't':
        expect_word("true");
        return Value::boolean(true);
      case 'f':
        expect_word("false");
        return Value::boolean(false);
      case '"':
        return Value::string(parse_string());
      case '[':
        return parse_array(depth);
      case '{':
        return parse_object(depth);
      default:
        return Value::number(parse_number());
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control char", pos_);
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail("bad escape", pos_ - 1);
      }
    }
  }

  std::string parse_unicode_escape() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad \\u escape", pos_ - 1);
      }
    }
    // Encode the code point as UTF-8 (surrogate pairs are passed through
    // as-is; the exporters never emit them).
    std::string out;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0u | (code >> 6));
      out += static_cast<char>(0x80u | (code & 0x3Fu));
    } else {
      out += static_cast<char>(0xE0u | (code >> 12));
      out += static_cast<char>(0x80u | ((code >> 6) & 0x3Fu));
      out += static_cast<char>(0x80u | (code & 0x3Fu));
    }
    return out;
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail("expected number", start);
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("expected fraction digits", pos_);
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) fail("expected exponent digits", pos_);
    }
    // strtod over a NUL-terminated copy of the validated span: the view
    // may run on into bytes strtod would accept (a validated "0" is
    // followed by "x1p3" in "0x1p3").
    // Underflow yields the nearest double (0 or a denormal); overflow is
    // an error, since JSON has no infinity to hand back.
    const std::string span(text_.substr(start, pos_ - start));
    const double value = std::strtod(span.c_str(), nullptr);
    if (std::isinf(value)) fail("number out of range", start);
    return value;
  }

  Value parse_array(int depth) {
    expect('[');
    Value out = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    for (;;) {
      skip_ws();
      out.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = take();
      if (c == ']') return out;
      if (c != ',') fail("expected ',' or ']'", pos_ - 1);
    }
  }

  Value parse_object(int depth) {
    expect('{');
    Value out = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      out.set(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = take();
      if (c == '}') return out;
      if (c != ',') fail("expected ',' or '}'", pos_ - 1);
    }
  }
};

}  // namespace

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
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
  return out;
}

Value Value::boolean(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::number(double x) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.num_ = x;
  return v;
}

Value Value::string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.str_ = std::move(s);
  return v;
}

Value Value::array() {
  Value v;
  v.kind_ = Kind::kArray;
  return v;
}

Value Value::object() {
  Value v;
  v.kind_ = Kind::kObject;
  return v;
}

Value Value::parse(std::string_view text) { return Parser(text).run(); }

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) throw std::logic_error("json: not a bool");
  return bool_;
}

double Value::as_number() const {
  if (kind_ != Kind::kNumber) throw std::logic_error("json: not a number");
  return num_;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) throw std::logic_error("json: not a string");
  return str_;
}

std::size_t Value::size() const {
  if (kind_ == Kind::kArray) return arr_.size();
  if (kind_ == Kind::kObject) return obj_.size();
  throw std::logic_error("json: size() on a scalar");
}

const Value& Value::operator[](std::size_t i) const {
  if (kind_ != Kind::kArray) throw std::logic_error("json: not an array");
  return arr_.at(i);
}

void Value::push_back(Value v) {
  if (kind_ != Kind::kArray) throw std::logic_error("json: not an array");
  arr_.push_back(std::move(v));
}

bool Value::has(const std::string& key) const {
  if (kind_ != Kind::kObject) throw std::logic_error("json: not an object");
  for (const auto& [k, v] : obj_) {
    if (k == key) return true;
  }
  return false;
}

const Value& Value::at(const std::string& key) const {
  if (kind_ != Kind::kObject) throw std::logic_error("json: not an object");
  for (const auto& [k, v] : obj_) {
    if (k == key) return v;
  }
  throw std::out_of_range("json: missing key \"" + key + "\"");
}

void Value::set(const std::string& key, Value v) {
  if (kind_ != Kind::kObject) throw std::logic_error("json: not an object");
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  obj_.emplace_back(key, std::move(v));
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  if (kind_ != Kind::kObject) throw std::logic_error("json: not an object");
  return obj_;
}

void Value::dump_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber: {
      if (!std::isfinite(num_)) {
        out += "null";  // JSON has no Inf/NaN; null keeps the document valid
        break;
      }
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", num_);
      // Prefer the short form when it round-trips (keeps files readable).
      char short_buf[32];
      std::snprintf(short_buf, sizeof short_buf, "%.12g", num_);
      out += (std::strtod(short_buf, nullptr) == num_) ? short_buf : buf;
      break;
    }
    case Kind::kString:
      out += '"';
      out += escape(str_);
      out += '"';
      break;
    case Kind::kArray: {
      out += '[';
      bool first = true;
      for (const Value& v : arr_) {
        if (!first) out += ',';
        v.dump_to(out);
        first = false;
      }
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ',';
        out += '"';
        out += escape(k);
        out += "\":";
        v.dump_to(out);
        first = false;
      }
      out += '}';
      break;
    }
  }
}

std::string Value::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

}  // namespace witag::obs::json
