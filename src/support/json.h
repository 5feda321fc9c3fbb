// Minimal JSON reader for the durable-campaign layer.
//
// The repo writes JSON by hand (metrics JSONL, Chrome traces, bench
// summaries) but until the write-ahead journal nothing needed to read it
// back. This parser covers exactly the subset those writers emit:
// objects, arrays, strings with \-escapes, integers/doubles, booleans and
// null. Numbers are kept as their literal token so 64-bit integers
// round-trip exactly (a double would silently lose precision past 2^53 —
// span tick totals get there).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/status.h"

namespace autovac {

class JsonValue {
 public:
  enum class Kind : uint8_t {
    kNull = 0,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  std::string number;        // literal token, e.g. "-12" or "0.25"
  std::string string_value;  // unescaped bytes
  std::vector<JsonValue> array;
  // Insertion-ordered; duplicate keys keep the last occurrence on lookup.
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::kBool; }

  // Object member lookup; null when absent or not an object.
  [[nodiscard]] const JsonValue* Find(std::string_view key) const;

  // Typed accessors returning InvalidArgument on kind/format mismatch.
  [[nodiscard]] Result<uint64_t> AsUint64() const;
  [[nodiscard]] Result<int64_t> AsInt64() const;
  [[nodiscard]] Result<double> AsDouble() const;
  [[nodiscard]] Result<bool> AsBool() const;
  [[nodiscard]] Result<std::string> AsString() const;
};

// Parses exactly one JSON value; trailing non-whitespace is an error.
[[nodiscard]] Result<JsonValue> ParseJson(std::string_view text);

// Convenience over Find + typed accessor, with a keyed error message.
[[nodiscard]] Result<uint64_t> JsonFieldUint64(const JsonValue& object,
                                               std::string_view key);
// An enum's underlying value: an unsigned integer below `bound` (the
// enum's value count), so a hostile value never becomes an out-of-range
// enum.
[[nodiscard]] Result<uint64_t> JsonFieldEnum(const JsonValue& object,
                                             std::string_view key,
                                             uint64_t bound);
[[nodiscard]] Result<std::string> JsonFieldString(const JsonValue& object,
                                                  std::string_view key);
[[nodiscard]] Result<bool> JsonFieldBool(const JsonValue& object,
                                         std::string_view key);

}  // namespace autovac
