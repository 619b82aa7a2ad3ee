// The one JSON writer and the one strict JSONL parser behind every record
// the repo writes or reads (smtbal.bench.*, smtbal.tournament/1,
// smtbal.trace-replay/1, smtbal.evalreq/1, smtbal.evalresp*/1 and the
// smtbal.evalstore/1 journal).
//
// Writer builds one single-line JSON object; commas, quoting and escaping
// happen inside it. Doubles print as %.17g, which recovers the exact bits,
// so equal doubles always print equally and parse back bit-exact.
//
// The parser reads one flat JSON object per line — string keys,
// string/number values, no nesting. Every malformed line fails with an
// InvalidArgument naming the source and the 1-based line number
// ("trace.jsonl:7: ..."). Numbers must be finite and in RFC 8259 syntax
// (no hex, no leading '+' or '.', no nan/inf).
//
// One escape rule; the writer emits and the parser decodes exactly:
//
//   escape   byte
//   \"       0x22 quote
//   \\       0x5C backslash
//   \n       0x0A newline
//   \t       0x09 tab
//   \r       0x0D carriage return
//   \u00XX   any other byte below 0x20 (written in lowercase hex)
//
// Every other byte is written as itself. The parser also takes \/ for
// '/'. Any other escape, including a \u form outside \u0000..\u001f, is
// a line-numbered error.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace smtbal::jsonl {

/// One parsed line: its fields plus where it came from, so every error an
/// accessor throws names "<source>:<line>".
class Record {
 public:
  /// Throws InvalidArgument("<source>:<line>: <message>").
  [[noreturn]] void fail(const std::string& message) const;
  [[nodiscard]] bool has(const std::string& key) const {
    return fields_.count(key) != 0;
  }
  [[nodiscard]] std::string string(const std::string& key) const;
  /// A finite number in RFC 8259 syntax.
  [[nodiscard]] double number(const std::string& key) const;
  /// number() restricted to exact non-negative integers.
  [[nodiscard]] std::uint64_t count(const std::string& key) const;
  /// The first key not in `known`, if any.
  [[nodiscard]] std::optional<std::string> unknown_key(
      std::initializer_list<std::string_view> known) const;

 private:
  friend Record parse_flat_object(const std::string&, std::string_view,
                                  std::size_t);
  Record(std::string_view source, std::size_t line)
      : source_(source), line_(line) {}
  struct Field {
    bool is_string = false;
    std::string text;
  };
  const Field& field(const std::string& key) const;

  std::map<std::string, Field> fields_;
  std::string source_;
  std::size_t line_;
};

/// Parses one flat JSON object — string keys, string/number values, no
/// nesting — found at `source`:`line`.
[[nodiscard]] Record parse_flat_object(const std::string& text,
                                       std::string_view source,
                                       std::size_t line);

/// Parses every non-blank line of `in` (a trailing '\r' is dropped),
/// checks its "schema" field against `schema`, and hands it to `fn`.
void for_each_record(std::istream& in, std::string_view source,
                     std::string_view schema,
                     const std::function<void(const Record&)>& fn);

/// JSON number that round-trips a double exactly (17 significant digits).
[[nodiscard]] std::string json_num(double value);

/// The escape rule above, without the surrounding quotes.
[[nodiscard]] std::string json_escape(std::string_view text);

/// A 64-bit key as fixed-width "0x" + 16 lowercase hex digits, and back.
[[nodiscard]] std::string hex64(std::uint64_t value);
[[nodiscard]] std::optional<std::uint64_t> parse_hex64(std::string_view text);

/// Builds one single-line JSON object:
///
///   Writer w("schema", "x/1");
///   w.add("runs", 3).array("ids").push("a", "b").end();
///   w.finish();  // {"schema":"x/1","runs":3,"ids":["a","b"]}
///
/// Values are written by type: strings quoted and escaped, bool as
/// true/false, integers in decimal, doubles as json_num. Misuse — a key
/// inside an array, an unclosed container, a non-finite double — throws
/// std::logic_error, so no record the parser would refuse is written.
class Writer {
 public:
  /// Opens the object, optionally with its first "key",value pairs.
  template <typename... KeyValues>
    requires(sizeof...(KeyValues) % 2 == 0)
  explicit Writer(const KeyValues&... pairs) {
    open('{');
    if constexpr (sizeof...(pairs) > 0) add(pairs...);
  }

  /// Adds "key":value pairs to the innermost open object.
  template <typename V, typename... Rest>
  Writer& add(std::string_view key, const V& value, const Rest&... rest) {
    name(key);
    put(value);
    if constexpr (sizeof...(Rest) > 0) add(rest...);
    return *this;
  }

  /// Appends values to the innermost open array.
  template <typename... Values>
  Writer& push(const Values&... values) {
    ((next(), put(values)), ...);
    return *this;
  }

  /// Opens "key":{ / "key":[ in an object, or { as an array element.
  Writer& object(std::string_view key) { return name(key).open('{'); }
  Writer& array(std::string_view key) { return name(key).open('['); }
  Writer& object() { return next().open('{'); }
  /// Closes the innermost open container.
  Writer& end();
  /// Closes the top-level object and returns the record.
  [[nodiscard]] std::string finish();

 private:
  Writer& name(std::string_view key);
  Writer& next();
  Writer& open(char bracket);
  void put(std::string_view text);
  void put(double value);
  template <std::same_as<bool> T>
  void put(T value) {
    out_ += value ? "true" : "false";
  }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  void put(T value) {
    char buffer[24];
    out_.append(buffer, std::to_chars(buffer, buffer + 24, value).ptr);
  }

  std::string out_;
  std::string open_;  ///< brackets of the open containers, outermost first
  bool comma_ = false;
};

}  // namespace smtbal::jsonl
