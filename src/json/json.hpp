// vn2::json — the one JSON codec behind every document VN2 reads or
// writes: telemetry snapshots and call trees, bench records and
// baselines, and the vn2-lint SARIF log.
//
//  * Value keeps object members in insertion order and numbers as their
//    literal text, so parse → dump preserves key order and number text.
//  * parse() is strict RFC 8259: exactly one document, no trailing bytes,
//    no duplicate keys, valid escapes and UTF-8, no raw control
//    characters in strings. Nesting depth (kMaxDepth) and document size
//    (kMaxBytes) have fixed limits.
//  * Every failure — bad syntax, a limit, a missing key, a mistyped or
//    inexact value — throws json::Error, which carries the byte offset
//    of the offending character or value.
//  * The writers print doubles with %.17g and non-finite ones as null.
//
// Standard library only, and no file IO: callers own the files.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vn2::json {

/// Deepest array/object nesting parse() accepts.
inline constexpr std::size_t kMaxDepth = 256;
/// Largest document parse() accepts, in bytes.
inline constexpr std::size_t kMaxBytes = std::size_t{64} << 20;

/// The codec's one error type. offset() is the byte offset into the
/// parsed document (0 for values built in memory).
class Error : public std::runtime_error {
 public:
  Error(std::size_t offset, const std::string& what);
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, Value>;

  Value() = default;
  Value(std::nullptr_t) {}
  Value(bool value);
  /// %.17g text; NaN and ±Inf become null (JSON has neither).
  Value(double value);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Value(T value)
      : kind_(Kind::kNumber), text_(std::to_string(value)) {}
  Value(std::string value);
  Value(const char* value);

  [[nodiscard]] static Value array(std::initializer_list<Value> items = {});
  /// Throws Error on a duplicate key.
  [[nodiscard]] static Value object(std::initializer_list<Member> members = {});
  /// A number written exactly as `literal`, which must be a JSON number.
  [[nodiscard]] static Value number(std::string_view literal);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

  /// Appends to an array. Returns *this for chaining.
  Value& push_back(Value item);
  /// Appends a member to an object; throws Error on a duplicate key.
  Value& set(std::string key, Value value);

  // Reading: each accessor throws Error at this value's offset when the
  // kind does not match.
  [[nodiscard]] bool as_bool() const;
  /// Throws when the literal is out of double range.
  [[nodiscard]] double as_double() const;
  /// Exact: throws on a negative, fractional, exponent-form or
  /// out-of-range literal instead of truncating it.
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] const std::string& as_string() const;
  /// The number's literal text, as parsed or written.
  [[nodiscard]] const std::string& number_text() const;
  [[nodiscard]] const std::vector<Value>& items() const;
  [[nodiscard]] const std::vector<Member>& members() const;
  /// The member named `key`, or nullptr when the object has none.
  [[nodiscard]] const Value* find(std::string_view key) const;
  /// The member named `key`; throws Error when it is missing.
  [[nodiscard]] const Value& at(std::string_view key) const;

 private:
  friend class Parser;
  void expect(Kind kind, const char* what) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::size_t offset_ = 0;
  std::string text_;  ///< String contents or number literal.
  std::vector<Value> items_;
  std::vector<Member> members_;
};

/// Parses exactly one RFC 8259 document; throws Error on anything else.
[[nodiscard]] Value parse(std::string_view text);

/// One line, no insignificant whitespace.
[[nodiscard]] std::string dump(const Value& value);
/// Two-space indentation with one member or element per line, except
/// that an array of scalars stays on one line; ends in a newline.
[[nodiscard]] std::string dump_indented(const Value& value);

}  // namespace vn2::json
