#include "json/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iterator>

namespace vn2::json {

Error::Error(std::size_t offset, const std::string& what)
    : std::runtime_error("json: offset " + std::to_string(offset) + ": " +
                         what),
      offset_(offset) {}

namespace {

/// (escape letter, byte) for every short escape RFC 8259 defines. The
/// writer uses all but the last: "/" needs no escaping.
constexpr std::pair<char, char> kEscapes[] = {
    {'"', '"'}, {'\\', '\\'}, {'b', '\b'}, {'f', '\f'},
    {'n', '\n'}, {'r', '\r'}, {'t', '\t'}, {'/', '/'}};

}  // namespace

// ---------------------------------------------------------------------------
// The parser. Recursive descent over the RFC 8259 grammar; the depth
// limit bounds the recursion, so hostile nesting cannot exhaust the stack.

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value document() {
    if (text_.size() > kMaxBytes)
      fail("document is larger than the limit of " +
           std::to_string(kMaxBytes) + " bytes");
    skip_ws();
    Value value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes after the document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error(pos_, what);
  }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  bool consume(char c) {
    if (!at(c)) return false;
    ++pos_;
    return true;
  }

  void take(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  char next() {
    if (pos_ >= text_.size()) fail("unexpected end of document");
    return text_[pos_++];
  }

  void skip_ws() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++pos_;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
      ++pos_;
    return pos_ > start;
  }

  Value parse_value(std::size_t depth) {
    if (pos_ >= text_.size()) fail("unexpected end of document");
    Value value;
    value.offset_ = pos_;
    switch (text_[pos_]) {
      case '{':
        parse_object(value, depth + 1);
        break;
      case '[':
        parse_array(value, depth + 1);
        break;
      case '"':
        value.kind_ = Value::Kind::kString;
        value.text_ = parse_string();
        break;
      case 't':
      case 'f':
        value.kind_ = Value::Kind::kBool;
        value.bool_ = text_[pos_] == 't';
        literal(value.bool_ ? "true" : "false");
        break;
      case 'n':
        literal("null");
        break;
      default:
        value.kind_ = Value::Kind::kNumber;
        value.text_ = parse_number();
    }
    return value;
  }

  void literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) fail("invalid literal");
    pos_ += word.size();
  }

  void open(std::size_t depth) {
    if (depth > kMaxDepth)
      fail("nesting deeper than the limit of " + std::to_string(kMaxDepth) +
           " levels");
    ++pos_;
    skip_ws();
  }

  void parse_array(Value& value, std::size_t depth) {
    open(depth);
    value.kind_ = Value::Kind::kArray;
    if (consume(']')) return;
    do {
      skip_ws();
      value.items_.push_back(parse_value(depth));
      skip_ws();
    } while (consume(','));
    take(']');
  }

  void parse_object(Value& value, std::size_t depth) {
    open(depth);
    value.kind_ = Value::Kind::kObject;
    if (consume('}')) return;
    do {
      skip_ws();
      if (!at('"')) fail("expected a string key");
      std::string key = parse_string();
      skip_ws();
      take(':');
      skip_ws();
      value.members_.emplace_back(std::move(key), parse_value(depth));
      skip_ws();
    } while (consume(','));
    take('}');
    reject_duplicate_keys(value.members_);
  }

  static void reject_duplicate_keys(const std::vector<Value::Member>& members) {
    std::vector<const Value::Member*> sorted;
    sorted.reserve(members.size());
    for (const Value::Member& member : members) sorted.push_back(&member);
    std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
      return a->first < b->first;
    });
    for (std::size_t i = 1; i < sorted.size(); ++i)
      if (sorted[i - 1]->first == sorted[i]->first)
        throw Error(std::max(sorted[i - 1]->second.offset_,
                             sorted[i]->second.offset_),
                    "duplicate key \"" + sorted[i]->first + "\"");
  }

  std::string parse_number() {
    const std::size_t start = pos_;
    consume('-');
    if (!consume('0') && !digits()) fail("expected a value");
    if (consume('.') && !digits()) fail("expected a digit after '.'");
    if (consume('e') || consume('E')) {
      if (!consume('+')) consume('-');
      if (!digits()) fail("expected an exponent");
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  std::string parse_string() {
    ++pos_;  // Opening quote.
    std::string out;
    while (true) {
      const auto c = static_cast<unsigned char>(next());
      if (c == '"') return out;
      if (c == '\\') {
        escape(out);
      } else if (c < 0x20) {
        --pos_;
        fail("unescaped control character in a string");
      } else if (c < 0x80) {
        out += static_cast<char>(c);
      } else {
        --pos_;
        utf8_sequence(out);
      }
    }
  }

  void escape(std::string& out) {
    const char letter = next();
    if (letter != 'u') {
      for (const auto& [known, byte] : kEscapes) {
        if (known == letter) {
          out += byte;
          return;
        }
      }
      --pos_;
      fail("invalid escape");
    }
    std::uint32_t code = hex4();
    if (code >= 0xD800 && code < 0xDC00) {
      // A high surrogate must be followed by an escaped low surrogate.
      if (text_.substr(pos_, 2) != "\\u") fail("unpaired surrogate escape");
      pos_ += 2;
      const std::uint32_t low = hex4();
      if (low < 0xDC00 || low >= 0xE000) fail("unpaired surrogate escape");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code < 0xE000) {
      fail("unpaired surrogate escape");
    }
    append_utf8(out, code);
  }

  std::uint32_t hex4() {
    std::uint32_t code = 0;
    const char* first = text_.data() + pos_;
    const char* last = first + std::min<std::size_t>(4, text_.size() - pos_);
    const auto [stop, status] = std::from_chars(first, last, code, 16);
    if (last - first != 4 || status != std::errc() || stop != last)
      fail("invalid \\u escape");
    pos_ += 4;
    return code;
  }

  static void append_utf8(std::string& out, std::uint32_t code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
      return;
    }
    if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    }
    out += static_cast<char>(0x80 | (code & 0x3F));
  }

  /// Copies one multi-byte UTF-8 sequence, rejecting overlong forms,
  /// surrogates and code points past U+10FFFF (RFC 3629).
  void utf8_sequence(std::string& out) {
    const auto lead = static_cast<unsigned char>(text_[pos_]);
    std::size_t length = 0;
    std::uint32_t code = 0;
    std::uint32_t least = 0;
    if ((lead & 0xE0) == 0xC0) {
      length = 2;
      code = lead & 0x1F;
      least = 0x80;
    } else if ((lead & 0xF0) == 0xE0) {
      length = 3;
      code = lead & 0x0F;
      least = 0x800;
    } else if ((lead & 0xF8) == 0xF0) {
      length = 4;
      code = lead & 0x07;
      least = 0x10000;
    } else {
      fail("invalid UTF-8");
    }
    if (text_.size() - pos_ < length) fail("invalid UTF-8");
    for (std::size_t k = 1; k < length; ++k) {
      const auto byte = static_cast<unsigned char>(text_[pos_ + k]);
      if ((byte & 0xC0) != 0x80) fail("invalid UTF-8");
      code = (code << 6) | (byte & 0x3F);
    }
    if (code < least || code > 0x10FFFF || (code >= 0xD800 && code < 0xE000))
      fail("invalid UTF-8");
    out.append(text_.substr(pos_, length));
    pos_ += length;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Value parse(std::string_view text) { return Parser(text).document(); }

// ---------------------------------------------------------------------------
// Value.

Value::Value(bool value) : kind_(Kind::kBool), bool_(value) {}

Value::Value(double value) {
  if (!std::isfinite(value)) return;  // null
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  kind_ = Kind::kNumber;
  text_ = buffer;
}

Value::Value(std::string value)
    : kind_(Kind::kString), text_(std::move(value)) {}

Value::Value(const char* value) : kind_(Kind::kString), text_(value) {}

Value Value::array(std::initializer_list<Value> items) {
  Value value;
  value.kind_ = Kind::kArray;
  value.items_.assign(items.begin(), items.end());
  return value;
}

Value Value::object(std::initializer_list<Member> members) {
  Value value;
  value.kind_ = Kind::kObject;
  for (const Member& member : members) value.set(member.first, member.second);
  return value;
}

Value Value::number(std::string_view literal) {
  Value value = parse(literal);
  if (value.kind_ != Kind::kNumber)
    throw Error(0, "not a number literal: " + std::string(literal));
  return value;
}

void Value::expect(Kind kind, const char* what) const {
  if (kind_ != kind) throw Error(offset_, std::string("expected ") + what);
}

Value& Value::push_back(Value item) {
  expect(Kind::kArray, "an array");
  items_.push_back(std::move(item));
  return *this;
}

Value& Value::set(std::string key, Value value) {
  if (find(key) != nullptr)
    throw Error(offset_, "duplicate key \"" + key + "\"");
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

bool Value::as_bool() const {
  expect(Kind::kBool, "true or false");
  return bool_;
}

double Value::as_double() const {
  expect(Kind::kNumber, "a number");
  double out = 0.0;
  const char* end = text_.data() + text_.size();
  const auto [stop, status] = std::from_chars(text_.data(), end, out);
  if (status != std::errc() || stop != end)
    throw Error(offset_, "number " + text_ + " is out of double range");
  return out;
}

std::uint64_t Value::as_u64() const {
  expect(Kind::kNumber, "an unsigned integer");
  std::uint64_t out = 0;
  const char* end = text_.data() + text_.size();
  const auto [stop, status] = std::from_chars(text_.data(), end, out);
  if (status != std::errc() || stop != end)
    throw Error(offset_, "expected an unsigned 64-bit integer, got " + text_);
  return out;
}

const std::string& Value::as_string() const {
  expect(Kind::kString, "a string");
  return text_;
}

const std::string& Value::number_text() const {
  expect(Kind::kNumber, "a number");
  return text_;
}

const std::vector<Value>& Value::items() const {
  expect(Kind::kArray, "an array");
  return items_;
}

const std::vector<Value::Member>& Value::members() const {
  expect(Kind::kObject, "an object");
  return members_;
}

const Value* Value::find(std::string_view key) const {
  for (const Member& member : members())
    if (member.first == key) return &member.second;
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* value = find(key);
  if (value == nullptr)
    throw Error(offset_, "missing key \"" + std::string(key) + "\"");
  return *value;
}

// ---------------------------------------------------------------------------
// The writer.

namespace {

void write_string(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    const auto* escape =
        std::find_if(std::begin(kEscapes), std::end(kEscapes) - 1,
                     [c](const auto& entry) { return entry.second == c; });
    if (escape != std::end(kEscapes) - 1) {
      out += '\\';
      out += escape->first;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(c));
      out += buffer;
    } else {
      out += c;
    }
  }
  out += '"';
}

/// `indent` < 0 writes compactly; otherwise `indent` is the current
/// nesting level of a two-space indented dump.
void write_value(std::string& out, const Value& value, int indent) {
  switch (value.kind()) {
    case Value::Kind::kNull:
      out += "null";
      return;
    case Value::Kind::kBool:
      out += value.as_bool() ? "true" : "false";
      return;
    case Value::Kind::kNumber:
      out += value.number_text();
      return;
    case Value::Kind::kString:
      write_string(out, value.as_string());
      return;
    case Value::Kind::kArray:
    case Value::Kind::kObject:
      break;
  }
  const bool object = value.kind() == Value::Kind::kObject;
  const std::size_t size =
      object ? value.members().size() : value.items().size();
  // An indented dump keeps an array of scalars (samples, a series of
  // numbers) on one line.
  const bool scalars =
      !object && std::none_of(value.items().begin(), value.items().end(),
                              [](const Value& item) {
                                return item.kind() == Value::Kind::kArray ||
                                       item.kind() == Value::Kind::kObject;
                              });
  const bool lines = indent >= 0 && !scalars;
  const int inner = lines ? indent + 1 : indent;
  out += object ? '{' : '[';
  for (std::size_t i = 0; i < size; ++i) {
    if (i != 0) out += indent >= 0 && scalars ? ", " : ",";
    if (lines) {
      out += '\n';
      out.append(2 * static_cast<std::size_t>(inner), ' ');
    }
    if (object) {
      write_string(out, value.members()[i].first);
      out += indent < 0 ? ":" : ": ";
      write_value(out, value.members()[i].second, inner);
    } else {
      write_value(out, value.items()[i], inner);
    }
  }
  if (lines && size != 0) {
    out += '\n';
    out.append(2 * static_cast<std::size_t>(indent), ' ');
  }
  out += object ? '}' : ']';
}

}  // namespace

std::string dump(const Value& value) {
  std::string out;
  write_value(out, value, -1);
  return out;
}

std::string dump_indented(const Value& value) {
  std::string out;
  write_value(out, value, 0);
  out += '\n';
  return out;
}

}  // namespace vn2::json
