#ifndef HIVESIM_COMMON_JSON_PARSE_H_
#define HIVESIM_COMMON_JSON_PARSE_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace hivesim {

/// A parsed JSON document node. The library historically only *wrote*
/// JSON (`JsonWriter`); the perf-trajectory harness is the first
/// consumer — `hivesim perfgate` reads the normalized BENCH_<area>.json
/// files back to compare them against committed baselines.
///
/// Objects are stored as `std::map`, so iteration is key-sorted and
/// deterministic (duplicate keys keep the last occurrence, per the
/// common JSON-parser convention). Numbers are doubles — exactly the
/// precision `JsonWriter::Number` emits.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  /// Byte offset of this value's first character in the parsed text.
  /// Consumers layering semantic validation on top of the grammar
  /// (scenario packs) tag their errors with it, so "field out of range"
  /// points at the document position just like a syntax error would.
  size_t offset = 0;
  bool bool_value = false;
  double number_value = 0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup; nullptr when this is not an object or the
  /// key is absent.
  const JsonValue* Find(const std::string& key) const;

  /// Convenience accessors with fallbacks (never assert).
  double NumberOr(double fallback) const {
    return is_number() ? number_value : fallback;
  }
  const std::string& StringOr(const std::string& fallback) const {
    return is_string() ? string_value : fallback;
  }
};

/// A pull reader over the text of one JSON document: the library's one
/// JSON grammar. `ParseJson` builds a `JsonValue` tree on top of it;
/// streaming consumers (the trace analyzer's ingestion) walk the text
/// with it directly and keep only the fields they need, building no
/// tree.
///
/// The grammar is strict JSON (no comments, no trailing commas) with a
/// lenient number token: an optional '-' then any run of
/// `[0-9.eE+-]` that `strtod` consumes whole, converted to the double
/// `strtod` gives (1e999 reads as inf). `\uXXXX` escapes decode
/// as UTF-8 (surrogate pairs are not recombined). A value nested inside
/// more than 64 containers is rejected. Errors are InvalidArgument and
/// read "JSON parse error at offset N: ...".
///
/// Strings and object keys come back as `string_view`s into the text;
/// only a string with escapes is decoded, into a scratch buffer that
/// stays valid until the next call on the reader.
///
/// Reading a document:
///   JsonReader reader(text);
///   HIVESIM_RETURN_IF_ERROR(reader.BeginObject());
///   for (std::string_view key;;) {
///     bool more = false;
///     HIVESIM_RETURN_IF_ERROR(reader.NextKey(&key, &more));
///     if (!more) break;
///     ... read or Skip() exactly one value ...
///   }
///   HIVESIM_RETURN_IF_ERROR(reader.Finish());
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// The kind of the next value, which is left unread. Errors at end of
  /// input and when the value would be nested too deep; any other
  /// character reads as kNumber (ReadNumber then rejects it).
  Status Peek(JsonValue::Kind* kind);

  /// Byte offset of the next unread character (after Peek: the first
  /// character of the next value).
  size_t offset() const { return pos_; }

  Status ReadNull();
  Status ReadBool(bool* out);
  Status ReadNumber(double* out);
  Status ReadString(std::string_view* out);

  /// Opens an object; NextKey then yields its keys in document order,
  /// setting `*more` false (and closing the object) at its '}'. After
  /// each key exactly one value must be read or skipped.
  Status BeginObject();
  Status NextKey(std::string_view* key, bool* more);

  /// Opens an array; NextElement sets `*more` true before each element
  /// and false (closing the array) at its ']'.
  Status BeginArray();
  Status NextElement(bool* more);

  /// Skips the next value, checking the grammar of everything in it.
  Status Skip();

  /// Ends the document: only whitespace may follow the last value.
  Status Finish();

 private:
  Status Error(std::string_view message) const;
  void SkipWhitespace();
  /// Depth check + whitespace + end-of-input check before any value.
  Status Enter();
  Status ExpectLiteral(std::string_view literal, std::string_view message);
  /// Scans a number token; `out` may be null (validate only).
  Status ScanNumber(double* out);
  /// Scans a string at its opening quote; decodes into scratch_ only
  /// when it has escapes and `out` is non-null.
  Status ScanString(std::string_view* out);
  Status ParseHex4(unsigned* out);
  Status ReadKey(std::string_view* key);

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;       ///< Containers currently open.
  bool fresh_ = false;  ///< Just after '{' or '['.
  std::string scratch_;
};

/// Parses one JSON document into a tree with `JsonReader`. The whole
/// input must be consumed (trailing whitespace allowed).
Result<JsonValue> ParseJson(std::string_view text);

/// Reads and parses `path`; IOError when unreadable, InvalidArgument
/// when malformed.
Result<JsonValue> ParseJsonFile(const std::string& path);

}  // namespace hivesim

#endif  // HIVESIM_COMMON_JSON_PARSE_H_
