// Minimal JSON support shared by every producer and reader in the repo:
// string escaping and integer formatting for writers (query responses, the
// access log, traces, metrics, the quarantine sidecar and the set manifest)
// and a small recursive-descent value parser for readers.
//
// The parser is defensive, not fast: depth-capped, size comes from the
// caller, malformed input yields kInvalidArgument, never a crash or
// unbounded recursion. Numbers are kept as doubles (JSON has no integer
// type); a plain unsigned integer literal that fits in 64 bits is also kept
// exactly (AsExactUint), so readers of on-disk integers never see a value
// rounded or wrapped.
#ifndef SRC_COMMON_JSON_H_
#define SRC_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"

namespace loggrep {

// Appends `s` as a quoted, escaped JSON string literal.
void AppendJsonString(std::string* out, std::string_view s);
// Appends `v` in decimal.
void AppendUint(std::string* out, uint64_t v);
inline std::string JsonQuote(std::string_view s) {
  std::string out;
  AppendJsonString(&out, s);
  return out;
}

// One parsed JSON value. Object keys are sorted (std::map) which matches
// every producer in this repo (all emit sorted keys already).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  // Typed accessors; defaults are returned on kind mismatch (callers in
  // tests assert kinds explicitly where it matters).
  bool AsBool(bool fallback = false) const;
  int64_t AsInt(int64_t fallback = 0) const;
  uint64_t AsUint(uint64_t fallback = 0) const;
  // True when the value was written as a plain unsigned integer literal (no
  // sign, fraction or exponent) that fits in 64 bits; `*out` then receives
  // it exactly. Strict readers use this where AsUint would truncate 1.5,
  // clamp -1 or round above 2^53.
  bool AsExactUint(uint64_t* out) const;
  double AsDouble(double fallback = 0) const;
  const std::string& AsString() const;
  const std::vector<JsonValue>& AsArray() const;
  const std::map<std::string, JsonValue>& AsObject() const;

  // Object member lookup; returns a shared null value when absent or when
  // this is not an object. `Get("a.b")` does NOT split on dots.
  const JsonValue& Get(const std::string& key) const;

  static JsonValue Null();
  static JsonValue Bool(bool b);
  static JsonValue Number(double d);
  static JsonValue Uint(uint64_t u);  // a number that is also exact
  static JsonValue Str(std::string s);
  static JsonValue Array(std::vector<JsonValue> items);
  static JsonValue Object(std::map<std::string, JsonValue> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  bool exact_uint_ = false;
  uint64_t uint_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

// Parses one complete JSON document (trailing garbage is an error).
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace loggrep

#endif  // SRC_COMMON_JSON_H_
