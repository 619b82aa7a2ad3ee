// The one JSON writer against the one strict parser: every string and
// every finite double survives write -> parse unchanged, nested
// containers place their commas correctly, and the parser refuses what
// RFC 8259 refuses with a "source:line" message.
#include "common/jsonl.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace smtbal::jsonl {
namespace {

std::string round_trip_string(const std::string& value) {
  const std::string line = Writer().add("k", value).finish();
  for (const char c : line) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
        << "raw control byte in " << line;
  }
  return parse_flat_object(line, "t", 1).string("k");
}

double round_trip_number(double value) {
  const std::string line = Writer().add("k", value).finish();
  return parse_flat_object(line, "t", 1).number("k");
}

/// The InvalidArgument message of parsing `line` as line 7 of "src" and
/// reading field "k" as a number.
std::string number_error(const std::string& line) {
  try {
    (void)parse_flat_object(line, "src", 7).number("k");
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

std::string parse_error(const std::string& line) {
  try {
    (void)parse_flat_object(line, "src", 7);
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(JsonlWriter, EverySingleByteRoundTrips) {
  for (int b = 0; b < 256; ++b) {
    const std::string alone(1, static_cast<char>(b));
    EXPECT_EQ(round_trip_string(alone), alone) << "byte " << b;
    const std::string embedded = "a" + alone + "z";
    EXPECT_EQ(round_trip_string(embedded), embedded) << "byte " << b;
  }
}

TEST(JsonlWriter, RandomByteStringsRoundTrip) {
  Rng rng(14);
  for (int i = 0; i < 2000; ++i) {
    std::string value(rng() % 48, '\0');
    for (char& c : value) c = static_cast<char>(rng() & 0xff);
    ASSERT_EQ(round_trip_string(value), value) << "string " << i;
  }
}

TEST(JsonlWriter, EscapeRuleIsTheDocumentedTable) {
  EXPECT_EQ(json_escape("\"\\\n\t\r"), "\\\"\\\\\\n\\t\\r");
  EXPECT_EQ(json_escape(std::string("\x00\x01\x1f", 3)),
            "\\u0000\\u0001\\u001f");
  EXPECT_EQ(json_escape("/ \x7f \xc3\xa9"), "/ \x7f \xc3\xa9");
  // Either hex case decodes; the writer only emits lowercase.
  EXPECT_EQ(parse_flat_object(R"({"k":"\u001F\u001f\/"})", "t", 1).string("k"),
            "\x1f\x1f/");
}

TEST(JsonlWriter, DoublesRoundTripBitExact) {
  std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.1,
      1.0 / 3.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(),
      1e-310,
      123456789012345678.0,
  };
  Rng rng(8259);
  while (values.size() < 5000) {
    const double value = std::bit_cast<double>(rng());
    if (std::isfinite(value)) values.push_back(value);
  }
  for (const double value : values) {
    const double back = round_trip_number(value);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(value))
        << json_num(value);
  }
}

TEST(JsonlWriter, ValuesAreWrittenByType) {
  EXPECT_EQ(Writer()
                .add("u", std::uint64_t{18446744073709551615u}, "i", -7, "t",
                     true, "f", false, "s", "text", "d", 2.0)
                .finish(),
            R"({"u":18446744073709551615,"i":-7,"t":true,"f":false,)"
            R"("s":"text","d":2})");
}

TEST(JsonlWriter, NestedContainersPlaceCommas) {
  Writer w;
  w.add("a", "x")
      .object("empty")
      .end()
      .array("none")
      .end()
      .object("o")
      .add("p", 1)
      .array("q")
      .push(1, 2)
      .end()
      .add("r", 3)
      .end()
      .array("objs");
  for (int i = 0; i < 3; ++i)
    w.object().add("i", i).end();
  w.end().array("strs").push("s\"1").push("s2").end().add("z", 0.5);
  EXPECT_EQ(w.finish(),
            R"({"a":"x","empty":{},"none":[],"o":{"p":1,"q":[1,2],"r":3},)"
            R"("objs":[{"i":0},{"i":1},{"i":2}],"strs":["s\"1","s2"],"z":0.5})");
  EXPECT_EQ(Writer().finish(), "{}");
}

TEST(JsonlWriter, RefusesMisuse) {
  EXPECT_THROW((void)Writer().add("k", std::nan("")), std::logic_error);
  EXPECT_THROW(
      (void)Writer().add("k", std::numeric_limits<double>::infinity()),
      std::logic_error);
  EXPECT_THROW((void)Writer().array("a").finish(), std::logic_error);
  EXPECT_THROW((void)Writer().array("a").add("k", "v"), std::logic_error);
  EXPECT_THROW((void)Writer().push("element"), std::logic_error);
  EXPECT_THROW((void)Writer().end(), std::logic_error);
}

TEST(JsonlWriter, HexKeysRoundTrip) {
  for (const std::uint64_t key :
       {std::uint64_t{0}, std::uint64_t{0x0123456789abcdef},
        ~std::uint64_t{0}}) {
    const std::string text = hex64(key);
    EXPECT_EQ(text.size(), 18u);
    EXPECT_EQ(parse_hex64(text), key);
  }
  EXPECT_EQ(hex64(0xab), "0x00000000000000ab");
  EXPECT_FALSE(parse_hex64("0x00000000000000AB"));
  EXPECT_FALSE(parse_hex64("0x00ab"));
  EXPECT_FALSE(parse_hex64("1x00000000000000ab"));
}

TEST(JsonlParser, AcceptsRfc8259Numbers) {
  for (const char* text :
       {"0", "-0", "7", "-12", "0.5", "1e6", "1E+2", "2.5e-3", "-0.0e0"}) {
    EXPECT_EQ(number_error(std::string(R"({"k":)") + text + "}"), "")
        << text;
  }
}

TEST(JsonlParser, RejectsNonJsonNumbersWithSourceAndLine) {
  for (const char* text :
       {"0x2", "+2", "nan", "NaN", "inf", "-inf", ".5", "5.", "01", "-",
        "1e", "1e+", "1.e3", "--1", "1,5", "true", "null"}) {
    const std::string what = number_error(std::string(R"({"k":)") + text + "}");
    EXPECT_NE(what.find("src:7:"), std::string::npos) << text << ": " << what;
  }
  const std::string what = number_error(R"({"k":0x2})");
  EXPECT_NE(what.find("is not a number: '0x2'"), std::string::npos) << what;
  const std::string huge = number_error(R"({"k":1e999})");
  EXPECT_NE(huge.find("src:7:"), std::string::npos) << huge;
  EXPECT_NE(huge.find("out of range"), std::string::npos) << huge;
}

TEST(JsonlParser, RejectsOtherEscapesWithSourceAndLine) {
  for (const char* line :
       {R"({"k":"\u0020"})", R"({"k":"\u00e9"})", R"({"k":"\u0100"})",
        R"({"k":"\u00zz"})", R"({"k":"\u001"})", R"({"k":"\u"})",
        R"({"k":"\x41"})", R"({"k":"\b"})", R"({"k":"\f"})"}) {
    const std::string what = parse_error(line);
    EXPECT_NE(what.find("src:7:"), std::string::npos) << line << ": " << what;
    EXPECT_NE(what.find("unsupported escape"), std::string::npos)
        << line << ": " << what;
  }
}

}  // namespace
}  // namespace smtbal::jsonl
