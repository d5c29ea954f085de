#include "common/json_parse.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

namespace hivesim {
namespace {

constexpr int kMaxDepth = 64;

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// True when [first, last) is a strict JSON number
/// (-?(0|[1-9]d*)(.d+)?([eE][+-]?d+)?). strtod consumes every such
/// token whole, so Skip can accept it without converting it.
bool IsStrictNumber(const char* first, const char* last) {
  const char* p = first;
  if (p != last && *p == '-') ++p;
  if (p == last) return false;
  if (*p == '0') {
    ++p;
  } else if (IsDigit(*p)) {
    while (p != last && IsDigit(*p)) ++p;
  } else {
    return false;
  }
  if (p != last && *p == '.') {
    ++p;
    if (p == last || !IsDigit(*p)) return false;
    while (p != last && IsDigit(*p)) ++p;
  }
  if (p != last && (*p == 'e' || *p == 'E')) {
    ++p;
    if (p != last && (*p == '+' || *p == '-')) ++p;
    if (p == last || !IsDigit(*p)) return false;
    while (p != last && IsDigit(*p)) ++p;
  }
  return p == last;
}

void AppendUtf8(std::string& out, unsigned code) {
  if (code < 0x80) {
    out += static_cast<char>(code);
  } else if (code < 0x800) {
    out += static_cast<char>(0xC0 | (code >> 6));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    // Surrogate pairs are not recombined — JsonWriter never emits
    // them (it escapes only control characters, which are < 0x80).
    out += static_cast<char>(0xE0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  }
}

}  // namespace

Status JsonReader::Error(std::string_view message) const {
  std::ostringstream out;
  out << "JSON parse error at offset " << pos_ << ": " << message;
  return Status::InvalidArgument(out.str());
}

void JsonReader::SkipWhitespace() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

Status JsonReader::Enter() {
  if (depth_ > kMaxDepth) return Error("nesting too deep");
  SkipWhitespace();
  if (pos_ >= text_.size()) return Error("unexpected end of input");
  return Status::OK();
}

Status JsonReader::Peek(JsonValue::Kind* kind) {
  HIVESIM_RETURN_IF_ERROR(Enter());
  switch (text_[pos_]) {
    case 'n': *kind = JsonValue::Kind::kNull; break;
    case 't':
    case 'f': *kind = JsonValue::Kind::kBool; break;
    case '"': *kind = JsonValue::Kind::kString; break;
    case '[': *kind = JsonValue::Kind::kArray; break;
    case '{': *kind = JsonValue::Kind::kObject; break;
    default: *kind = JsonValue::Kind::kNumber; break;
  }
  return Status::OK();
}

Status JsonReader::ExpectLiteral(std::string_view literal,
                                 std::string_view message) {
  if (text_.substr(pos_, literal.size()) != literal) return Error(message);
  pos_ += literal.size();
  return Status::OK();
}

Status JsonReader::ReadNull() {
  HIVESIM_RETURN_IF_ERROR(Enter());
  return ExpectLiteral("null", "expected 'null'");
}

Status JsonReader::ReadBool(bool* out) {
  HIVESIM_RETURN_IF_ERROR(Enter());
  if (text_[pos_] == 't') {
    *out = true;
    return ExpectLiteral("true", "expected 'true'");
  }
  *out = false;
  return ExpectLiteral("false", "expected 'false'");
}

Status JsonReader::ReadNumber(double* out) {
  HIVESIM_RETURN_IF_ERROR(Enter());
  return ScanNumber(out);
}

Status JsonReader::ScanNumber(double* out) {
  const size_t start = pos_;
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (IsDigit(c) || c == '.' || c == 'e' || c == 'E' || c == '+' ||
        c == '-') {
      ++pos_;
    } else {
      break;
    }
  }
  if (pos_ == start) return Error("expected a value");
  const size_t length = pos_ - start;
  const char* first = text_.data() + start;
  if (IsStrictNumber(first, first + length)) {
    if (out == nullptr) return Status::OK();
    // from_chars and glibc's strtod both round correctly, so they give
    // the same double for every strict token; from_chars is ~4x faster
    // and needs no NUL. Out-of-range tokens (1e999) fall through to
    // strtod, which saturates to inf or 0 as it always has.
    const auto [end, error] = std::from_chars(first, first + length, *out);
    if (error == std::errc() && end == first + length) return Status::OK();
  }
  // strtod needs a NUL-terminated buffer; tokens are short, so a stack
  // buffer serves all but hostile inputs.
  char small[64];
  std::string large;
  const char* token = small;
  if (length < sizeof(small)) {
    std::memcpy(small, first, length);
    small[length] = '\0';
  } else {
    large.assign(first, length);
    token = large.c_str();
  }
  char* end = nullptr;
  const double value = std::strtod(token, &end);
  if (end != token + length) {
    pos_ = start;
    return Error("malformed number");
  }
  if (out != nullptr) *out = value;
  return Status::OK();
}

Status JsonReader::ReadString(std::string_view* out) {
  HIVESIM_RETURN_IF_ERROR(Enter());
  if (text_[pos_] != '"') return Error("expected a string");
  return ScanString(out);
}

Status JsonReader::ScanString(std::string_view* out) {
  ++pos_;  // Opening quote.
  const size_t start = pos_;
  // Fast path: no escapes, so the string is a slice of the text.
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '"') {
      if (out != nullptr) *out = text_.substr(start, pos_ - start);
      ++pos_;
      return Status::OK();
    }
    if (c == '\\') break;
    ++pos_;
  }
  if (out != nullptr) scratch_.assign(text_.substr(start, pos_ - start));
  while (true) {
    if (pos_ >= text_.size()) return Error("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') break;
    if (c != '\\') {
      if (out != nullptr) scratch_ += c;
      continue;
    }
    if (pos_ >= text_.size()) return Error("unterminated escape");
    const char escape = text_[pos_++];
    char decoded = 0;
    switch (escape) {
      case '"': decoded = '"'; break;
      case '\\': decoded = '\\'; break;
      case '/': decoded = '/'; break;
      case 'b': decoded = '\b'; break;
      case 'f': decoded = '\f'; break;
      case 'n': decoded = '\n'; break;
      case 'r': decoded = '\r'; break;
      case 't': decoded = '\t'; break;
      case 'u': {
        unsigned code = 0;
        HIVESIM_RETURN_IF_ERROR(ParseHex4(&code));
        if (out != nullptr) AppendUtf8(scratch_, code);
        continue;
      }
      default:
        return Error("unknown escape character");
    }
    if (out != nullptr) scratch_ += decoded;
  }
  if (out != nullptr) *out = scratch_;
  return Status::OK();
}

Status JsonReader::ParseHex4(unsigned* out) {
  if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
  *out = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = text_[pos_++];
    *out <<= 4;
    if (c >= '0' && c <= '9') {
      *out |= static_cast<unsigned>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      *out |= static_cast<unsigned>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      *out |= static_cast<unsigned>(c - 'A' + 10);
    } else {
      return Error("invalid hex digit in \\u escape");
    }
  }
  return Status::OK();
}

Status JsonReader::BeginObject() {
  HIVESIM_RETURN_IF_ERROR(Enter());
  if (text_[pos_] != '{') return Error("expected an object");
  ++pos_;
  ++depth_;
  fresh_ = true;
  return Status::OK();
}

Status JsonReader::NextKey(std::string_view* key, bool* more) {
  SkipWhitespace();
  if (fresh_) {
    fresh_ = false;
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      --depth_;
      *more = false;
      return Status::OK();
    }
  } else {
    if (pos_ >= text_.size()) return Error("unterminated object");
    const char c = text_[pos_++];
    if (c == '}') {
      --depth_;
      *more = false;
      return Status::OK();
    }
    if (c != ',') {
      --pos_;
      return Error("expected ',' or '}' in object");
    }
  }
  *more = true;
  return ReadKey(key);
}

Status JsonReader::ReadKey(std::string_view* key) {
  SkipWhitespace();
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    return Error("expected string key in object");
  }
  HIVESIM_RETURN_IF_ERROR(ScanString(key));
  SkipWhitespace();
  if (pos_ >= text_.size() || text_[pos_] != ':') {
    return Error("expected ':' after object key");
  }
  ++pos_;
  return Status::OK();
}

Status JsonReader::BeginArray() {
  HIVESIM_RETURN_IF_ERROR(Enter());
  if (text_[pos_] != '[') return Error("expected an array");
  ++pos_;
  ++depth_;
  fresh_ = true;
  return Status::OK();
}

Status JsonReader::NextElement(bool* more) {
  SkipWhitespace();
  if (fresh_) {
    fresh_ = false;
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      --depth_;
      *more = false;
      return Status::OK();
    }
    *more = true;
    return Status::OK();
  }
  if (pos_ >= text_.size()) return Error("unterminated array");
  const char c = text_[pos_++];
  if (c == ']') {
    --depth_;
    *more = false;
    return Status::OK();
  }
  if (c != ',') {
    --pos_;
    return Error("expected ',' or ']' in array");
  }
  *more = true;
  return Status::OK();
}

Status JsonReader::Skip() {
  JsonValue::Kind kind;
  HIVESIM_RETURN_IF_ERROR(Peek(&kind));
  switch (kind) {
    case JsonValue::Kind::kNull:
      return ReadNull();
    case JsonValue::Kind::kBool: {
      bool ignored = false;
      return ReadBool(&ignored);
    }
    case JsonValue::Kind::kNumber:
      return ScanNumber(nullptr);
    case JsonValue::Kind::kString:
      return ScanString(nullptr);
    case JsonValue::Kind::kArray: {
      HIVESIM_RETURN_IF_ERROR(BeginArray());
      for (bool more = true;;) {
        HIVESIM_RETURN_IF_ERROR(NextElement(&more));
        if (!more) return Status::OK();
        HIVESIM_RETURN_IF_ERROR(Skip());
      }
    }
    case JsonValue::Kind::kObject: {
      HIVESIM_RETURN_IF_ERROR(BeginObject());
      for (std::string_view key;;) {
        bool more = false;
        HIVESIM_RETURN_IF_ERROR(NextKey(&key, &more));
        if (!more) return Status::OK();
        HIVESIM_RETURN_IF_ERROR(Skip());
      }
    }
  }
  return Status::OK();
}

Status JsonReader::Finish() {
  SkipWhitespace();
  if (pos_ != text_.size()) {
    return Error("trailing characters after JSON document");
  }
  return Status::OK();
}

namespace {

/// Builds the tree for the next value of `reader` into `out`.
Status ReadTree(JsonReader& reader, JsonValue& out) {
  HIVESIM_RETURN_IF_ERROR(reader.Peek(&out.kind));
  out.offset = reader.offset();
  switch (out.kind) {
    case JsonValue::Kind::kNull:
      return reader.ReadNull();
    case JsonValue::Kind::kBool:
      return reader.ReadBool(&out.bool_value);
    case JsonValue::Kind::kNumber:
      return reader.ReadNumber(&out.number_value);
    case JsonValue::Kind::kString: {
      std::string_view text;
      HIVESIM_RETURN_IF_ERROR(reader.ReadString(&text));
      out.string_value.assign(text);
      return Status::OK();
    }
    case JsonValue::Kind::kArray: {
      HIVESIM_RETURN_IF_ERROR(reader.BeginArray());
      for (bool more = true;;) {
        HIVESIM_RETURN_IF_ERROR(reader.NextElement(&more));
        if (!more) return Status::OK();
        JsonValue element;
        HIVESIM_RETURN_IF_ERROR(ReadTree(reader, element));
        out.array.push_back(std::move(element));
      }
    }
    case JsonValue::Kind::kObject: {
      HIVESIM_RETURN_IF_ERROR(reader.BeginObject());
      for (std::string_view key_text;;) {
        bool more = false;
        HIVESIM_RETURN_IF_ERROR(reader.NextKey(&key_text, &more));
        if (!more) return Status::OK();
        std::string key(key_text);
        JsonValue value;
        HIVESIM_RETURN_IF_ERROR(ReadTree(reader, value));
        // Duplicate keys keep the last occurrence.
        out.object[std::move(key)] = std::move(value);
      }
    }
  }
  return Status::OK();
}

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

Result<JsonValue> ParseJson(std::string_view text) {
  JsonReader reader(text);
  JsonValue value;
  HIVESIM_RETURN_IF_ERROR(ReadTree(reader, value));
  HIVESIM_RETURN_IF_ERROR(reader.Finish());
  return value;
}

Result<JsonValue> ParseJsonFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError("cannot read " + path);
  Result<JsonValue> parsed = ParseJson(buffer.str());
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " + parsed.status().message());
  }
  return parsed;
}

}  // namespace hivesim
