#include "support/json.h"

#include <cctype>
#include <cstdlib>

#include "support/strings.h"

namespace autovac {
namespace {

// Recursion guard: journal records nest a handful of levels, anything
// deeper is hostile input, not a campaign artifact.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    AUTOVAC_ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument(
          StrFormat("trailing bytes after JSON value at offset %zu", pos_));
    }
    return value;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!Consume(c)) {
      return Status::InvalidArgument(
          StrFormat("expected '%c' at offset %zu", c, pos_));
    }
    return Status::Ok();
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) {
      return Status::InvalidArgument("JSON nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("truncated JSON value");
    }
    const char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject(depth);
      case '[': return ParseArray(depth);
      case '"': return ParseString();
      case 't':
      case 'f': return ParseBool();
      case 'n': return ParseNull();
      default: return ParseNumber();
    }
  }

  Result<JsonValue> ParseObject(int depth) {
    AUTOVAC_RETURN_IF_ERROR(Expect('{'));
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) return value;
    while (true) {
      SkipWhitespace();
      AUTOVAC_ASSIGN_OR_RETURN(JsonValue key, ParseString());
      SkipWhitespace();
      AUTOVAC_RETURN_IF_ERROR(Expect(':'));
      AUTOVAC_ASSIGN_OR_RETURN(JsonValue member, ParseValue(depth + 1));
      value.object.emplace_back(std::move(key.string_value),
                                std::move(member));
      SkipWhitespace();
      if (Consume('}')) return value;
      AUTOVAC_RETURN_IF_ERROR(Expect(','));
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    AUTOVAC_RETURN_IF_ERROR(Expect('['));
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) return value;
    while (true) {
      AUTOVAC_ASSIGN_OR_RETURN(JsonValue element, ParseValue(depth + 1));
      value.array.push_back(std::move(element));
      SkipWhitespace();
      if (Consume(']')) return value;
      AUTOVAC_RETURN_IF_ERROR(Expect(','));
    }
  }

  Result<JsonValue> ParseString() {
    AUTOVAC_RETURN_IF_ERROR(Expect('"'));
    JsonValue value;
    value.kind = JsonValue::Kind::kString;
    std::string& out = value.string_value;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return value;
      if (static_cast<unsigned char>(c) < 0x20) {
        // RFC 8259: control characters must be escaped. A raw one here
        // usually means a torn journal record, so fail loudly.
        return Status::InvalidArgument("raw control byte in JSON string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Status::InvalidArgument("truncated \\u escape");
          }
          uint32_t code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<uint32_t>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<uint32_t>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<uint32_t>(h - 'A' + 10);
            else return Status::InvalidArgument("bad \\u escape");
          }
          // Our writers only emit \u00XX (control bytes); decode those to
          // the raw byte. Larger code points are passed through UTF-8 by
          // the writers unescaped, so reject them here rather than guess.
          if (code > 0xFF) {
            return Status::InvalidArgument("non-byte \\u escape");
          }
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          return Status::InvalidArgument(
              StrFormat("bad escape '\\%c'", esc));
      }
    }
    return Status::InvalidArgument("unterminated JSON string");
  }

  Result<JsonValue> ParseBool() {
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      JsonValue value;
      value.kind = JsonValue::Kind::kBool;
      value.bool_value = true;
      return value;
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      JsonValue value;
      value.kind = JsonValue::Kind::kBool;
      value.bool_value = false;
      return value;
    }
    return Status::InvalidArgument("bad literal");
  }

  Result<JsonValue> ParseNull() {
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return JsonValue();
    }
    return Status::InvalidArgument("bad literal");
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      return Status::InvalidArgument(
          StrFormat("bad JSON token at offset %zu", start));
    }
    // RFC 8259 forbids leading zeros ("01"); our writers never produce
    // them, so one in a journal means corruption, not style.
    const size_t digits = text_[start] == '-' ? start + 1 : start;
    if (text_[digits] == '0' && digits + 1 < pos_ &&
        std::isdigit(static_cast<unsigned char>(text_[digits + 1])) != 0) {
      return Status::InvalidArgument(
          StrFormat("leading zero in JSON number at offset %zu", start));
    }
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.number = std::string(text_.substr(start, pos_ - start));
    return value;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  const JsonValue* found = nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) found = &value;
  }
  return found;
}

Result<uint64_t> JsonValue::AsUint64() const {
  if (kind != Kind::kNumber) {
    return Status::InvalidArgument("JSON value is not a number");
  }
  uint64_t out = 0;
  if (!ParseUint64(number, &out)) {
    return Status::InvalidArgument("not an unsigned integer: " + number);
  }
  return out;
}

Result<int64_t> JsonValue::AsInt64() const {
  if (kind != Kind::kNumber) {
    return Status::InvalidArgument("JSON value is not a number");
  }
  int64_t out = 0;
  if (!ParseInt64(number, &out)) {
    return Status::InvalidArgument("not an integer: " + number);
  }
  return out;
}

Result<double> JsonValue::AsDouble() const {
  if (kind != Kind::kNumber) {
    return Status::InvalidArgument("JSON value is not a number");
  }
  char* end = nullptr;
  const double out = std::strtod(number.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    return Status::InvalidArgument("not a double: " + number);
  }
  return out;
}

Result<bool> JsonValue::AsBool() const {
  if (kind != Kind::kBool) {
    return Status::InvalidArgument("JSON value is not a bool");
  }
  return bool_value;
}

Result<std::string> JsonValue::AsString() const {
  if (kind != Kind::kString) {
    return Status::InvalidArgument("JSON value is not a string");
  }
  return string_value;
}

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

namespace {
Result<const JsonValue*> RequireField(const JsonValue& object,
                                      std::string_view key) {
  const JsonValue* field = object.Find(key);
  if (field == nullptr) {
    return Status::InvalidArgument("missing JSON field: " + std::string(key));
  }
  return field;
}
}  // namespace

Result<uint64_t> JsonFieldUint64(const JsonValue& object,
                                 std::string_view key) {
  AUTOVAC_ASSIGN_OR_RETURN(const JsonValue* field,
                           RequireField(object, key));
  return field->AsUint64();
}

Result<uint64_t> JsonFieldEnum(const JsonValue& object, std::string_view key,
                               uint64_t bound) {
  AUTOVAC_ASSIGN_OR_RETURN(const uint64_t value,
                           JsonFieldUint64(object, key));
  if (value >= bound) {
    return Status::InvalidArgument(
        StrFormat("JSON field %s out of range: %llu",
                  std::string(key).c_str(),
                  static_cast<unsigned long long>(value)));
  }
  return value;
}

Result<std::string> JsonFieldString(const JsonValue& object,
                                    std::string_view key) {
  AUTOVAC_ASSIGN_OR_RETURN(const JsonValue* field,
                           RequireField(object, key));
  return field->AsString();
}

Result<bool> JsonFieldBool(const JsonValue& object, std::string_view key) {
  AUTOVAC_ASSIGN_OR_RETURN(const JsonValue* field,
                           RequireField(object, key));
  return field->AsBool();
}

}  // namespace autovac
