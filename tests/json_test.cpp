// The JSON codec: the RFC 8259 grammar (accepting every value kind and
// rejecting each class of malformed document), the fixed depth and size
// limits, the byte offset every error carries, the exact u64 accessor,
// and the writers (escaping, null for non-finite numbers, literal number
// text, insertion-ordered members, both layouts).
#include "json/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace vn2::json {
namespace {

/// Offset of the Error `text` raises; fails the test when it parses.
std::size_t error_offset(const std::string& text) {
  try {
    (void)parse(text);
  } catch (const Error& error) {
    return error.offset();
  }
  ADD_FAILURE() << "parsed without error: " << text;
  return 0;
}

std::string error_message(const std::string& text) {
  try {
    (void)parse(text);
  } catch (const Error& error) {
    return error.what();
  }
  return "";
}

TEST(Json, ParsesEveryKindAndKeepsMemberOrder) {
  const Value doc = parse(
      " {\"z\": null, \"a\": [true, false], \"m\": -0.50e+2,"
      " \"s\": \"x\\u00e9\\n\", \"o\": {}} ");
  ASSERT_EQ(doc.kind(), Value::Kind::kObject);
  const auto& members = doc.members();
  ASSERT_EQ(members.size(), 5u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[4].first, "o");
  EXPECT_TRUE(doc.at("z").is_null());
  ASSERT_EQ(doc.at("a").items().size(), 2u);
  EXPECT_TRUE(doc.at("a").items()[0].as_bool());
  EXPECT_FALSE(doc.at("a").items()[1].as_bool());
  EXPECT_EQ(doc.at("m").number_text(), "-0.50e+2");
  EXPECT_DOUBLE_EQ(doc.at("m").as_double(), -50.0);
  EXPECT_EQ(doc.at("s").as_string(), "x\xc3\xa9\n");
  EXPECT_TRUE(doc.at("o").members().empty());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, DumpKeepsKeyOrderAndNumberText) {
  const std::string compact =
      "{\"b\":1.250,\"a\":[1e3,-0,{\"c\":\"\\\"q\\\"\"}],\"n\":null}";
  EXPECT_EQ(dump(parse(compact)), compact);
  EXPECT_EQ(dump_indented(parse(compact)),
            "{\n"
            "  \"b\": 1.250,\n"
            "  \"a\": [\n"
            "    1e3,\n"
            "    -0,\n"
            "    {\n"
            "      \"c\": \"\\\"q\\\"\"\n"
            "    }\n"
            "  ],\n"
            "  \"n\": null\n"
            "}\n");
  // Empty containers and arrays of scalars stay on one line.
  EXPECT_EQ(
      dump_indented(parse("{\"e\": {}, \"f\": [], \"g\": [1,\"x\",null]}")),
      "{\n  \"e\": {},\n  \"f\": [],\n  \"g\": [1, \"x\", null]\n}\n");
}

TEST(Json, RejectsGrammarViolations) {
  const std::vector<std::string> bad = {
      "",           " ",          "{",          "[1,]",
      "{\"a\":1,}", "01",         "1.",         ".5",
      "+1",         "-",          "1e",         "1e+",
      "tru",        "nul",        "'a'",        "[1 2]",
      "{\"a\" 1}",  "{1:2}",      "\"\\x\"",    "\"\\u12\"",
      "\"\\u12g4\"", "\"abc",     "NaN",        "Infinity",
      "-Infinity",  "[1]x",       "{} {}",      "\"a\nb\"",
      "\"\t\"",     "[\"\x01\"]", "\"\xff\"",   "\"\xc0\xaf\"",
      "\"\xe0\x80\xaf\"", "\"\xed\xa0\x80\"", "\"\xf4\x90\x80\x80\"",
      "\"\xc3\"",   "\"\\ud800\"", "\"\\udc00\"", "\"\\ud800\\u0041\"",
      "\xef\xbb\xbf{}",
  };
  for (const std::string& text : bad) {
    SCOPED_TRACE(text);
    EXPECT_THROW((void)parse(text), Error);
  }
}

TEST(Json, ErrorsCarryTheByteOffset) {
  EXPECT_EQ(error_offset("[1, x]"), 4u);
  EXPECT_EQ(error_offset("{\"a\": 1} trailing"), 9u);
  EXPECT_EQ(error_offset("\"ab\\q\""), 4u);
  // A duplicate key is reported at the later occurrence's value.
  EXPECT_EQ(error_offset("{\"k\": 1, \"j\": 2, \"k\": 3}"), 22u);
  EXPECT_NE(error_message("{\"k\": 1, \"k\": 2}").find("duplicate key \"k\""),
            std::string::npos);
  const Value doc = parse("{\"a\": [1, \"s\"]}");
  try {
    (void)doc.at("a").items()[1].as_u64();
    ADD_FAILURE() << "a string read as u64";
  } catch (const Error& error) {
    EXPECT_EQ(error.offset(), 10u);
  }
}

TEST(Json, NestingDepthIsLimited) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW((void)parse(nested(kMaxDepth)));
  const std::string message = error_message(nested(kMaxDepth + 1));
  EXPECT_NE(message.find("limit of " + std::to_string(kMaxDepth)),
            std::string::npos)
      << message;
  // Far past the limit: rejected at the limit, not by exhausting the stack.
  EXPECT_EQ(error_offset(nested(200000)), kMaxDepth);
  std::string objects;
  for (int i = 0; i < 200000; ++i) objects += "{\"k\":";
  EXPECT_EQ(error_offset(objects), kMaxDepth * 5);
}

TEST(Json, DocumentSizeIsLimited) {
  std::string huge(kMaxBytes + 1, ' ');
  huge.front() = '0';
  const std::string message = error_message(huge);
  EXPECT_NE(message.find("limit of " + std::to_string(kMaxBytes)),
            std::string::npos)
      << message;
}

TEST(Json, U64ReadsAreExact) {
  EXPECT_EQ(parse("18446744073709551615").as_u64(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse("0").as_u64(), 0u);
  for (const char* inexact :
       {"18446744073709551616", "-1", "-0", "1.5", "1.0", "1e3", "1e300"}) {
    SCOPED_TRACE(inexact);
    EXPECT_THROW((void)parse(inexact).as_u64(), Error);
  }
  EXPECT_DOUBLE_EQ(parse("1e300").as_double(), 1e300);
  EXPECT_THROW((void)parse("1e400").as_double(), Error);
}

TEST(Json, AccessorsRejectTheWrongKind) {
  const Value doc = parse("{\"a\": [1], \"s\": \"x\"}");
  EXPECT_THROW((void)doc.at("missing"), Error);
  EXPECT_THROW((void)doc.at("a").at("x"), Error);
  EXPECT_THROW((void)doc.at("a").find("x"), Error);
  EXPECT_THROW((void)doc.at("s").as_double(), Error);
  EXPECT_THROW((void)doc.at("s").items(), Error);
  EXPECT_THROW((void)doc.as_bool(), Error);
  EXPECT_THROW((void)doc.at("s").number_text(), Error);
}

TEST(Json, WriterEscapesAndWritesNonFiniteAsNull) {
  Value doc = Value::object();
  doc.set("text", "quote\" slash\\ nl\n tab\t cr\r bell\x07 \xc3\xa9")
      .set("nan", std::nan(""))
      .set("inf", -std::numeric_limits<double>::infinity())
      .set("third", 1.0 / 3.0)
      .set("big", std::numeric_limits<std::uint64_t>::max())
      .set("neg", std::int64_t{-7})
      .set("flag", false)
      .set("list", Value::array({1, "two", nullptr}));
  const std::string text = dump(doc);
  EXPECT_NE(text.find("\\u0007"), std::string::npos) << text;
  EXPECT_NE(text.find("\"nan\":null"), std::string::npos) << text;
  EXPECT_NE(text.find("\"inf\":null"), std::string::npos) << text;
  EXPECT_NE(text.find("\"big\":18446744073709551615"), std::string::npos);
  const Value back = parse(text);
  EXPECT_EQ(back.at("text").as_string(), doc.at("text").as_string());
  EXPECT_TRUE(back.at("nan").is_null());
  EXPECT_EQ(back.at("third").as_double(), 1.0 / 3.0);  // %.17g round-trips.
  EXPECT_EQ(back.at("neg").number_text(), "-7");
  EXPECT_EQ(back.at("list").items()[1].as_string(), "two");
  EXPECT_EQ(dump(back), text);
}

TEST(Json, SurrogatePairsDecodeToUtf8) {
  EXPECT_EQ(parse("\"\\ud83d\\ude00\"").as_string(), "\xf0\x9f\x98\x80");
  EXPECT_EQ(parse("\"\xf0\x9f\x98\x80\"").as_string(), "\xf0\x9f\x98\x80");
  EXPECT_EQ(parse("\"\\/\\b\\f\"").as_string(), "/\b\f");
}

TEST(Json, BuildersRejectDuplicateKeysAndBadLiterals) {
  Value doc = Value::object({{"a", 1}});
  EXPECT_THROW(doc.set("a", 2), Error);
  EXPECT_THROW((void)Value::object({{"b", 1}, {"b", 2}}), Error);
  EXPECT_EQ(Value::number("1.250").number_text(), "1.250");
  EXPECT_THROW((void)Value::number("abc"), Error);
  EXPECT_THROW((void)Value::number("\"1\""), Error);
  EXPECT_THROW(Value(1).push_back(2), Error);
}

}  // namespace
}  // namespace vn2::json
