#ifndef WSVERIFY_OBS_JSON_UTIL_H_
#define WSVERIFY_OBS_JSON_UTIL_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace wsv::obs {

/// Escapes `text` for inclusion inside a JSON string literal (quotes not
/// added): ", \, control characters.
std::string JsonEscape(std::string_view text);

/// Minimal streaming JSON writer with automatic comma placement. All the
/// observability serializers (stats document, trace events) go through this
/// so their output is well-formed by construction.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  /// Emits an object key; must be followed by exactly one value.
  JsonWriter& Key(std::string_view name);
  JsonWriter& String(std::string_view value);
  JsonWriter& Uint(uint64_t value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();
  /// Splices a pre-rendered JSON value verbatim (caller guarantees
  /// validity).
  JsonWriter& Raw(std::string_view json);

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void BeforeValue();

  std::string out_;
  /// One entry per open container: whether it already holds a value.
  std::vector<bool> has_value_;
  bool after_key_ = false;
};

/// A parsed JSON value in DOM form, for the tools that need to READ the
/// documents the pipeline writes (wsvc-merge consuming shard verdict JSON).
/// Object members keep insertion order; duplicate keys keep the last value
/// (matching how the documents are produced — JsonWriter never duplicates).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;

  bool boolean = false;
  /// Every number carries the double view; when the lexeme had no fraction,
  /// exponent or sign (is_uint), `uinteger` is the exact value — the form
  /// all index/counter fields in the verdict documents use.
  double number = 0.0;
  uint64_t uinteger = 0;
  bool is_uint = false;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool IsObject() const { return kind == Kind::kObject; }
  bool IsArray() const { return kind == Kind::kArray; }

  /// Object member lookup; null when absent or this is not an object.
  const JsonValue* Find(std::string_view key) const;
  /// Nested lookup: Find(a) then Find(b) ...; null on any miss.
  const JsonValue* FindPath(std::initializer_list<std::string_view> keys) const;

  /// Typed accessors with fallbacks (fallback on kind mismatch).
  bool AsBool(bool fallback) const {
    return kind == Kind::kBool ? boolean : fallback;
  }
  uint64_t AsUint(uint64_t fallback) const {
    return kind == Kind::kNumber && is_uint ? uinteger : fallback;
  }
  const std::string& AsString(const std::string& fallback) const {
    return kind == Kind::kString ? string : fallback;
  }
};

/// Parses one JSON document into DOM form (RFC 8259 grammar; \u escapes
/// are decoded to UTF-8, surrogate pairs included). The test suite also
/// uses it as the syntax check that keeps every serializer honest.
Result<JsonValue> JsonParse(std::string_view text);

}  // namespace wsv::obs

#endif  // WSVERIFY_OBS_JSON_UTIL_H_
