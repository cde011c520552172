// Minimal JSON value used by the scenario subsystem for spec files and
// campaign output. Deliberately tiny: objects keep insertion order (so
// serialized campaigns are byte-stable), numbers are doubles printed with a
// fixed format, and parsing covers exactly the JSON subset the specs need
// (null, bool, number, string, array, object — no \u escapes beyond ASCII).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace ren::scenario {

class Json;
using JsonArray = std::vector<Json>;
/// Insertion-ordered object (objects in specs and reports are small).
using JsonObject = std::vector<std::pair<std::string, Json>>;

class Json {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Json() = default;
  Json(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) : kind_(Kind::Bool), bool_(b) {}  // NOLINT
  Json(double v) : kind_(Kind::Number), num_(v) {}  // NOLINT
  Json(int v) : Json(static_cast<double>(v)) {}  // NOLINT
  Json(std::int64_t v) : Json(static_cast<double>(v)) {}  // NOLINT
  Json(std::uint64_t v) : Json(static_cast<double>(v)) {}  // NOLINT
  Json(const char* s) : kind_(Kind::String), str_(s) {}  // NOLINT
  Json(std::string s) : kind_(Kind::String), str_(std::move(s)) {}  // NOLINT
  Json(JsonArray a) : kind_(Kind::Array), arr_(std::move(a)) {}  // NOLINT
  Json(JsonObject o) : kind_(Kind::Object), obj_(std::move(o)) {}  // NOLINT

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonObject& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(const std::string& key) const;
  /// Object member lookup; throws std::runtime_error naming the key when
  /// it is absent (reading back a report, where every key is required).
  [[nodiscard]] const Json& at(const std::string& key) const;
  /// Member or a default (missing keys in specs mean "use the default").
  [[nodiscard]] double number_or(const std::string& key, double dflt) const;
  [[nodiscard]] bool bool_or(const std::string& key, bool dflt) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      std::string dflt) const;

  /// Append a member (object kind is adopted if currently null).
  void set(std::string key, Json value);
  /// Append an element (array kind is adopted if currently null).
  void push_back(Json value);

  /// Compact serialization with deterministic number formatting.
  [[nodiscard]] std::string dump() const;
  /// Pretty serialization (2-space indent), same number formatting.
  [[nodiscard]] std::string pretty() const;

  /// Parse a JSON document. Throws std::runtime_error with a position on
  /// malformed input.
  static Json parse(const std::string& text);

 private:
  void write(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  JsonArray arr_;
  JsonObject obj_;
};

/// A JSON array of `values`, each converted through Json's constructors.
template <class Range>
[[nodiscard]] Json json_array(const Range& values) {
  Json out{JsonArray{}};
  for (const auto& v : values) out.push_back(v);
  return out;
}

}  // namespace ren::scenario
