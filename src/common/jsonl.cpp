#include "common/jsonl.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>

#include "common/error.hpp"

namespace smtbal::jsonl {

namespace {

/// RFC 8259 number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
bool is_json_number(std::string_view t) {
  std::size_t i = 0;
  const auto take = [&](std::string_view set) {
    return i < t.size() && set.find(t[i]) != std::string_view::npos && ++i;
  };
  const auto digits = [&] {
    const std::size_t start = i;
    while (take("0123456789")) {
    }
    return i > start;
  };
  take("-");
  if (!take("0") && !digits()) return false;
  if (take(".") && !digits()) return false;
  if (take("eE") && (take("+-"), !digits())) return false;
  return i == t.size();
}

}  // namespace

Record parse_flat_object(const std::string& text, std::string_view source,
                         std::size_t line) {
  Record record(source, line);
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
  };
  const auto expect = [&](char c, const std::string& what) {
    skip_ws();
    if (i >= text.size() || text[i] != c) record.fail("expected " + what);
    ++i;
  };
  // \u00XX, the writer's escape for control bytes (i is past the 'u').
  const auto parse_control_escape = [&]() -> char {
    const std::string_view hex = std::string_view(text).substr(i, 4);
    unsigned value = 0;
    const char* last = hex.data() + hex.size();
    if (hex.size() != 4 ||
        std::from_chars(hex.data(), last, value, 16).ptr != last ||
        value >= 0x20) {
      record.fail("unsupported escape '\\u" + std::string(hex) + "'");
    }
    i += 4;
    return static_cast<char>(value);
  };
  const auto parse_string = [&]() -> std::string {
    expect('"', "'\"'");
    std::string out;
    while (i < text.size() && text[i] != '"') {
      char c = text[i++];
      if (c == '\\') {
        if (i >= text.size()) record.fail("unterminated escape");
        const char esc = text[i++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'u': c = parse_control_escape(); break;
          default:
            record.fail(std::string("unsupported escape '\\") + esc + "'");
        }
      }
      out.push_back(c);
    }
    if (i >= text.size()) record.fail("unterminated string");
    ++i;  // closing quote
    return out;
  };

  expect('{', "'{' (one JSON object per line)");
  skip_ws();
  if (i < text.size() && text[i] == '}') {
    ++i;
  } else {
    for (;;) {
      skip_ws();
      const std::string key = parse_string();
      expect(':', "':' after key \"" + key + "\"");
      skip_ws();
      Record::Field field;
      if (i < text.size() && text[i] == '"') {
        field.is_string = true;
        field.text = parse_string();
      } else {
        const std::size_t start = i;
        while (i < text.size() && text[i] != ',' && text[i] != '}' &&
               text[i] != ' ' && text[i] != '\t') {
          ++i;
        }
        field.text = text.substr(start, i - start);
        if (field.text.empty()) {
          record.fail("missing value for key \"" + key + "\"");
        }
      }
      if (!record.fields_.emplace(key, std::move(field)).second) {
        record.fail("duplicate key \"" + key + "\"");
      }
      skip_ws();
      if (i < text.size() && text[i] == ',') {
        ++i;
        continue;
      }
      break;
    }
    expect('}', "',' or '}'");
  }
  skip_ws();
  if (i != text.size()) {
    record.fail("trailing characters after the JSON object");
  }
  return record;
}

void for_each_record(std::istream& in, std::string_view source,
                     std::string_view schema,
                     const std::function<void(const Record&)>& fn) {
  std::string text;
  for (std::size_t line = 1; std::getline(in, text); ++line) {
    if (text.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (text.back() == '\r') text.pop_back();
    const Record record = parse_flat_object(text, source, line);
    const std::string found = record.string("schema");
    if (found != schema) {
      record.fail("unsupported schema '" + found + "' (expected '" +
                  std::string(schema) + "')");
    }
    fn(record);
  }
}

void Record::fail(const std::string& message) const {
  throw InvalidArgument(source_ + ":" + std::to_string(line_) + ": " + message);
}

const Record::Field& Record::field(const std::string& key) const {
  const auto it = fields_.find(key);
  if (it == fields_.end()) fail("missing required field \"" + key + "\"");
  return it->second;
}

std::string Record::string(const std::string& key) const {
  const Field& f = field(key);
  if (!f.is_string) fail("field \"" + key + "\" must be a string");
  return f.text;
}

double Record::number(const std::string& key) const {
  const Field& f = field(key);
  if (f.is_string) fail("field \"" + key + "\" must be a number");
  if (!is_json_number(f.text)) {
    fail("field \"" + key + "\" is not a number: '" + f.text + "'");
  }
  const double value = std::strtod(f.text.c_str(), nullptr);
  if (!std::isfinite(value)) {
    fail("field \"" + key + "\" is out of range: '" + f.text + "'");
  }
  return value;
}

std::uint64_t Record::count(const std::string& key) const {
  const double value = number(key);
  if (value < 0.0 || value >= 0x1p64 ||
      value != static_cast<double>(static_cast<std::uint64_t>(value))) {
    fail("field \"" + key + "\" must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(value);
}

std::optional<std::string> Record::unknown_key(
    std::initializer_list<std::string_view> known) const {
  for (const auto& [key, f] : fields_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) return key;
  }
  return std::nullopt;
}

std::string json_num(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_escape(std::string_view text) {
  std::string out;
  constexpr std::string_view kRaw = "\"\\\n\t\r", kNamed = "\"\\ntr";
  for (const char c : text) {
    if (const std::size_t at = kRaw.find(c); at != std::string_view::npos) {
      out += '\\';
      out += kNamed[at];
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += "\\u00";
      out += "0123456789abcdef"[c >> 4];
      out += "0123456789abcdef"[c & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

std::string hex64(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::optional<std::uint64_t> parse_hex64(std::string_view text) {
  if (text.size() != 18 || !text.starts_with("0x") ||
      text.find_first_not_of("0123456789abcdef", 2) != std::string_view::npos) {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  (void)std::from_chars(text.data() + 2, text.data() + 18, value, 16);
  return value;
}

Writer& Writer::end() {
  SMTBAL_CHECK_MSG(open_.size() > 1, "jsonl::Writer::end: nothing open");
  out_ += open_.back() == '{' ? '}' : ']';
  open_.pop_back();
  comma_ = true;
  return *this;
}

std::string Writer::finish() {
  SMTBAL_CHECK_MSG(open_ == "{", "jsonl::Writer::finish: a container is open");
  open_.clear();
  out_ += '}';
  return std::move(out_);
}

Writer& Writer::name(std::string_view key) {
  SMTBAL_CHECK_MSG(open_.ends_with('{'), "jsonl::Writer: key outside object");
  if (comma_) out_ += ',';
  comma_ = true;
  put(key);
  out_ += ':';
  return *this;
}

Writer& Writer::next() {
  SMTBAL_CHECK_MSG(open_.ends_with('['), "jsonl::Writer: value outside array");
  if (comma_) out_ += ',';
  comma_ = true;
  return *this;
}

Writer& Writer::open(char bracket) {
  out_ += bracket;
  open_ += bracket;
  comma_ = false;
  return *this;
}

void Writer::put(std::string_view text) {
  out_ += '"' + json_escape(text) + '"';
}

void Writer::put(double value) {
  SMTBAL_CHECK_MSG(std::isfinite(value), "jsonl::Writer: non-finite double");
  out_ += json_num(value);
}

}  // namespace smtbal::jsonl
