// Minimal JSON value model with a writer and a strict recursive-descent
// parser, and the repo's only JSON reader. The observability exporters
// (Chrome trace, metrics reports) are emitted *and parsed back* through
// it without an external dependency — tests round-trip every schema
// through this parser — and the tools read with it too: bench_compare
// (metrics exports), witag_lint --check-sarif (SARIF) and telemetry_tail
// (JSONL streams).
//
// Scope is deliberately small: UTF-8 pass-through (only the escapes JSON
// requires are produced/understood), doubles for every number, no
// comments, no trailing commas.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace witag::obs::json {

/// Escapes a string for embedding inside JSON quotes (no surrounding
/// quotes added).
std::string escape(std::string_view s);

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;  // null
  static Value boolean(bool b);
  static Value number(double v);
  static Value string(std::string s);
  static Value array();
  static Value object();

  /// Parses a complete JSON document (leading/trailing whitespace ok).
  /// Throws std::invalid_argument with a byte offset on malformed input,
  /// on nesting deeper than 64 levels and on a number too large for a
  /// double; a number too small for one reads as the nearest double.
  static Value parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw std::logic_error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;

  /// Array access.
  std::size_t size() const;
  const Value& operator[](std::size_t i) const;
  void push_back(Value v);

  /// Object access. `at` throws std::out_of_range on a missing key.
  bool has(const std::string& key) const;
  const Value& at(const std::string& key) const;
  void set(const std::string& key, Value v);
  const std::vector<std::pair<std::string, Value>>& members() const;

  /// Serializes compactly (no whitespace). Numbers use up to 17
  /// significant digits so doubles round-trip exactly.
  std::string dump() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Value> arr_;
  // Insertion-ordered object members (stable, diff-friendly exports).
  std::vector<std::pair<std::string, Value>> obj_;

  void dump_to(std::string& out) const;
};

}  // namespace witag::obs::json
