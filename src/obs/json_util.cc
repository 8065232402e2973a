#include "obs/json_util.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace wsv::obs {

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_value_.empty()) {
    if (has_value_.back()) out_ += ',';
    has_value_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  has_value_.pop_back();
  out_ += '}';
  if (!has_value_.empty()) has_value_.back() = true;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  has_value_.pop_back();
  out_ += ']';
  if (!has_value_.empty()) has_value_.back() = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view name) {
  if (!has_value_.empty()) {
    if (has_value_.back()) out_ += ',';
    has_value_.back() = true;
  }
  out_ += '"';
  out_ += JsonEscape(name);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_ += "0";  // JSON has no NaN/Inf
    return *this;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  out_ += buffer;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  BeforeValue();
  out_ += json;
  return *this;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  const JsonValue* found = nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) found = &value;  // last duplicate wins
  }
  return found;
}

const JsonValue* JsonValue::FindPath(
    std::initializer_list<std::string_view> keys) const {
  const JsonValue* cursor = this;
  for (std::string_view key : keys) {
    cursor = cursor->Find(key);
    if (cursor == nullptr) return nullptr;
  }
  return cursor;
}

namespace {

/// Recursive-descent DOM builder over the RFC 8259 grammar.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Run() {
    JsonValue root;
    WSV_RETURN_IF_ERROR(Value(&root));
    SkipSpace();
    if (pos_ != text_.size()) return Fail("trailing content");
    return root;
  }

 private:
  Status Fail(const std::string& what) {
    return Status::ParseError("invalid JSON at byte " + std::to_string(pos_) +
                              ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Fail("expected literal");
    }
    pos_ += word.size();
    return Status::Ok();
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status HexQuad(uint32_t* out) {
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size() ||
          !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("bad \\u escape");
      }
      char c = text_[pos_++];
      uint32_t digit = c <= '9'   ? static_cast<uint32_t>(c - '0')
                       : c <= 'F' ? static_cast<uint32_t>(c - 'A' + 10)
                                  : static_cast<uint32_t>(c - 'a' + 10);
      value = value * 16 + digit;
    }
    *out = value;
    return Status::Ok();
  }

  Status StringValue(std::string* out) {
    if (!Eat('"')) return Fail("expected string");
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      }
      if (c == '"') {
        ++pos_;
        return Status::Ok();
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Fail("truncated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            uint32_t cp = 0;
            WSV_RETURN_IF_ERROR(HexQuad(&cp));
            if (cp >= 0xD800 && cp < 0xDC00 && pos_ + 1 < text_.size() &&
                text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
              pos_ += 2;
              uint32_t low = 0;
              WSV_RETURN_IF_ERROR(HexQuad(&low));
              if (low >= 0xDC00 && low < 0xE000) {
                cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
              } else {
                AppendUtf8(0xFFFD, out);
                cp = low >= 0xD800 && low < 0xE000 ? 0xFFFD : low;
              }
            } else if (cp >= 0xD800 && cp < 0xE000) {
              cp = 0xFFFD;  // lone surrogate
            }
            AppendUtf8(cp, out);
            break;
          }
          default:
            return Fail("bad escape character");
        }
        continue;
      }
      out->push_back(c);
      ++pos_;
    }
    return Fail("unterminated string");
  }

  Status NumberValue(JsonValue* out) {
    const size_t start = pos_;
    bool negative = Eat('-');
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return Fail("expected digit");
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const size_t int_end = pos_;
    bool fractional = false;
    if (Eat('.')) {
      fractional = true;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("expected fraction digit");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      fractional = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("expected exponent digit");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    out->kind = JsonValue::Kind::kNumber;
    std::string lexeme(text_.substr(start, pos_ - start));
    out->number = std::strtod(lexeme.c_str(), nullptr);
    if (!negative && !fractional) {
      // Unsigned-integer view, exact unless the lexeme overflows uint64.
      uint64_t value = 0;
      bool overflow = false;
      for (size_t i = start; i < int_end; ++i) {
        uint64_t digit = static_cast<uint64_t>(text_[i] - '0');
        if (value > (static_cast<uint64_t>(-1) - digit) / 10) {
          overflow = true;
          break;
        }
        value = value * 10 + digit;
      }
      if (!overflow) {
        out->is_uint = true;
        out->uinteger = value;
      }
    }
    return Status::Ok();
  }

  Status Value(JsonValue* out) {
    if (++depth_ > 256) return Fail("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    Status status;
    switch (text_[pos_]) {
      case '{':
        status = ObjectValue(out);
        break;
      case '[':
        status = ArrayValue(out);
        break;
      case '"':
        out->kind = JsonValue::Kind::kString;
        status = StringValue(&out->string);
        break;
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        status = Literal("true");
        break;
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        status = Literal("false");
        break;
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        status = Literal("null");
        break;
      default:
        status = NumberValue(out);
    }
    --depth_;
    return status;
  }

  Status ObjectValue(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (Eat('}')) return Status::Ok();
    while (true) {
      SkipSpace();
      std::string key;
      WSV_RETURN_IF_ERROR(StringValue(&key));
      SkipSpace();
      if (!Eat(':')) return Fail("expected ':'");
      JsonValue value;
      WSV_RETURN_IF_ERROR(Value(&value));
      out->object.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (Eat('}')) return Status::Ok();
      if (!Eat(',')) return Fail("expected ',' or '}'");
    }
  }

  Status ArrayValue(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (Eat(']')) return Status::Ok();
    while (true) {
      JsonValue value;
      WSV_RETURN_IF_ERROR(Value(&value));
      out->array.push_back(std::move(value));
      SkipSpace();
      if (Eat(']')) return Status::Ok();
      if (!Eat(',')) return Fail("expected ',' or ']'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<JsonValue> JsonParse(std::string_view text) {
  return Parser(text).Run();
}

}  // namespace wsv::obs
