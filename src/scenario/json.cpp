#include "scenario/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace ren::scenario {

namespace {

[[noreturn]] void type_error(const char* want) {
  throw std::runtime_error(std::string("json: value is not a ") + want);
}

/// Fixed-format number rendering: integers without a fraction, everything
/// else with the fewest digits (>= 12 significant) that parse back to the
/// exact double. The format is part of the determinism contract (equal
/// doubles serialize to equal bytes regardless of how the campaign was
/// threaded), and the exact round-trip is what lets `--merge` rebuild
/// shard aggregates byte-identical to the unsharded report. JSON has no
/// spelling for inf or nan, so those throw instead of writing a document
/// no parser reads back.
std::string format_number(double v) {
  if (!std::isfinite(v)) {
    throw std::runtime_error("json: cannot render non-finite number " +
                             std::to_string(v));
  }
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[40];
  for (int precision = 12; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void write_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    // Report the position as line:column (1-based) — spec files are edited
    // by hand, and editors jump to lines, not byte offsets.
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw std::runtime_error("json: " + what + " at line " +
                             std::to_string(line) + ", column " +
                             std::to_string(col));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Json parse_value() {
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Json(parse_string());
    if (consume_literal("true")) return Json(true);
    if (consume_literal("false")) return Json(false);
    if (consume_literal("null")) return Json(nullptr);
    return parse_number();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            const std::string hex = text_.substr(pos_, 4);
            pos_ += 4;
            const auto code = static_cast<unsigned>(
                std::stoul(hex, nullptr, 16));
            if (code > 0x7f) fail("non-ASCII \\u escape unsupported");
            out += static_cast<char>(code);
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    if (pos_ == start) fail("invalid value");
    const std::string token = text_.substr(start, pos_ - start);
    try {
      std::size_t used = 0;
      const double v = std::stod(token, &used);
      if (used != token.size()) fail("invalid number");  // e.g. "1-2", "1.2.3"
      return Json(v);
    } catch (const std::exception&) {
      fail("invalid number");
    }
  }

  /// The comma-separated items of an array or object up to `close`, each
  /// read by `item`.
  template <class Item>
  void parse_items(char close, Item item) {
    if (peek() == close) {
      ++pos_;
      return;
    }
    while (true) {
      item();
      const char c = peek();
      ++pos_;
      if (c == close) break;
      if (c != ',') fail(std::string("expected ',' or '") + close + "'");
    }
  }

  Json parse_array() {
    expect('[');
    JsonArray arr;
    parse_items(']', [&] { arr.push_back(parse_value()); });
    return Json(std::move(arr));
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    parse_items('}', [&] {
      std::string key = parse_string();
      expect(':');
      obj.emplace_back(std::move(key), parse_value());
    });
    return Json(std::move(obj));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Json::as_bool() const {
  if (kind_ != Kind::Bool) type_error("bool");
  return bool_;
}

double Json::as_number() const {
  if (kind_ != Kind::Number) type_error("number");
  return num_;
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::String) type_error("string");
  return str_;
}

const JsonArray& Json::as_array() const {
  if (kind_ != Kind::Array) type_error("array");
  return arr_;
}

const JsonObject& Json::as_object() const {
  if (kind_ != Kind::Object) type_error("object");
  return obj_;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  if (v == nullptr) {
    throw std::runtime_error("json: missing key \"" + key + "\"");
  }
  return *v;
}

double Json::number_or(const std::string& key, double dflt) const {
  const Json* v = find(key);
  return v != nullptr ? v->as_number() : dflt;
}

bool Json::bool_or(const std::string& key, bool dflt) const {
  const Json* v = find(key);
  return v != nullptr ? v->as_bool() : dflt;
}

std::string Json::string_or(const std::string& key, std::string dflt) const {
  const Json* v = find(key);
  return v != nullptr ? v->as_string() : dflt;
}

void Json::set(std::string key, Json value) {
  if (kind_ == Kind::Null) kind_ = Kind::Object;
  if (kind_ != Kind::Object) type_error("object");
  obj_.emplace_back(std::move(key), std::move(value));
}

void Json::push_back(Json value) {
  if (kind_ == Kind::Null) kind_ = Kind::Array;
  if (kind_ != Kind::Array) type_error("array");
  arr_.push_back(std::move(value));
}

void Json::write(std::string& out, int indent, int depth) const {
  const std::string pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * (depth + 1)), ' ') : "";
  const std::string close_pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * depth), ' ') : "";
  const char* nl = indent > 0 ? "\n" : "";
  switch (kind_) {
    case Kind::Null: out += "null"; break;
    case Kind::Bool: out += bool_ ? "true" : "false"; break;
    case Kind::Number: out += format_number(num_); break;
    case Kind::String: write_escaped(out, str_); break;
    case Kind::Array:
    case Kind::Object: {
      // Arrays and objects differ only in brackets and member keys.
      const bool object = kind_ == Kind::Object;
      const std::size_t n = object ? obj_.size() : arr_.size();
      out += object ? '{' : '[';
      if (n > 0) out += nl;
      for (std::size_t i = 0; i < n; ++i) {
        out += pad;
        if (object) {
          write_escaped(out, obj_[i].first);
          out += indent > 0 ? ": " : ":";
        }
        (object ? obj_[i].second : arr_[i]).write(out, indent, depth + 1);
        if (i + 1 < n) out += ',';
        out += nl;
      }
      if (n > 0) out += close_pad;
      out += object ? '}' : ']';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  write(out, 0, 0);
  return out;
}

std::string Json::pretty() const {
  std::string out;
  write(out, 2, 0);
  out += '\n';
  return out;
}

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace ren::scenario
