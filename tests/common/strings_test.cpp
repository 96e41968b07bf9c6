#include "common/strings.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace myproxy::strings {
namespace {

TEST(Trim, RemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(Split, PreservesEmptyFields) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a", ','), (std::vector<std::string>{"a"}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTrimmed, DropsEmptiesAndTrims) {
  EXPECT_EQ(split_trimmed(" a , , b ", ','),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(split_trimmed("  ,  ", ',').empty());
}

TEST(Join, RoundTripsWithSplit) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(join(parts, ","), "x,y,z");
  EXPECT_EQ(split(join(parts, ","), ','), parts);
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(CaseHelpers, LowerAndIequals) {
  EXPECT_EQ(to_lower("MiXeD123"), "mixed123");
  EXPECT_TRUE(iequals("VERSION", "version"));
  EXPECT_TRUE(iequals("", ""));
  EXPECT_FALSE(iequals("abc", "abd"));
  EXPECT_FALSE(iequals("abc", "abcd"));
}

TEST(IsAllDigits, Basics) {
  EXPECT_TRUE(is_all_digits("0123456789"));
  EXPECT_FALSE(is_all_digits(""));
  EXPECT_FALSE(is_all_digits("12a"));
  EXPECT_FALSE(is_all_digits("-12"));
}

TEST(ParseU64, AcceptsOnlyFullWidthDigits) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("007"), 7u);
  EXPECT_EQ(parse_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  // A lenient stoul would happily return 12 for "12abc" and wrap "-3";
  // every wire/ticket/store parse site must reject junk outright.
  EXPECT_FALSE(parse_u64("12abc").has_value());
  EXPECT_FALSE(parse_u64("-3").has_value());
  EXPECT_FALSE(parse_u64("+5").has_value());
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64(" 7").has_value());
  EXPECT_FALSE(parse_u64("7 ").has_value());
  EXPECT_FALSE(parse_u64("0x10").has_value());
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());  // overflow
}

TEST(ParseI64, AllowsOneLeadingMinusOnly) {
  EXPECT_EQ(parse_i64("42"), 42);
  EXPECT_EQ(parse_i64("-42"), -42);
  EXPECT_EQ(parse_i64("0"), 0);
  EXPECT_EQ(parse_i64("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(parse_i64("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_FALSE(parse_i64("").has_value());
  EXPECT_FALSE(parse_i64("-").has_value());
  EXPECT_FALSE(parse_i64("--3").has_value());
  EXPECT_FALSE(parse_i64("+42").has_value());
  EXPECT_FALSE(parse_i64("12abc").has_value());
  EXPECT_FALSE(parse_i64("-12abc").has_value());
  EXPECT_FALSE(parse_i64("9223372036854775808").has_value());  // overflow
}

TEST(ConstantTimeEquals, MatchesSemantics) {
  EXPECT_TRUE(constant_time_equals("secret", "secret"));
  EXPECT_FALSE(constant_time_equals("secret", "secres"));
  EXPECT_FALSE(constant_time_equals("secret", "secret1"));
  EXPECT_FALSE(constant_time_equals("", "x"));
  EXPECT_TRUE(constant_time_equals("", ""));
}

struct GlobCase {
  const char* name;
  const char* pattern;
  const char* text;
  bool match;
};

// gtest prints the parameter into each test's listed name; printing the
// case name keeps those names stable (the default dumps the raw bytes,
// which are pointers).
void PrintTo(const GlobCase& c, std::ostream* os) { *os << c.name; }

class GlobMatch : public ::testing::TestWithParam<GlobCase> {};

TEST_P(GlobMatch, MatchesExpected) {
  const auto& c = GetParam();
  EXPECT_EQ(glob_match(c.pattern, c.text), c.match)
      << "pattern=" << c.pattern << " text=" << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    DnPatterns, GlobMatch,
    ::testing::Values(
        GlobCase{"StarMatchesEmpty", "*", "", true},
        GlobCase{"StarMatchesDn", "*", "/C=US/O=Grid/CN=alice", true},
        GlobCase{"TrailingStarPrefix", "/C=US/O=Grid/*",
                 "/C=US/O=Grid/CN=alice", true},
        GlobCase{"TrailingStarOtherPrefix", "/C=US/O=Grid/*",
                 "/C=US/O=Other/CN=alice", false},
        GlobCase{"InnerStar", "/C=US/*/CN=alice", "/C=US/O=Grid/CN=alice",
                 true},
        GlobCase{"InnerStarOtherSuffix", "/C=US/*/CN=alice",
                 "/C=US/O=Grid/CN=bob", false},
        GlobCase{"Substring", "*portal*", "/O=Grid/CN=portal-1", true},
        GlobCase{"QuestionOneChar", "?", "x", true},
        GlobCase{"QuestionNotEmpty", "?", "", false},
        GlobCase{"ManyStars", "a*b*c", "axxbyyc", true},
        GlobCase{"ManyStarsMissingTail", "a*b*c", "axxbyy", false},
        GlobCase{"EmptyMatchesEmpty", "", "", true},
        GlobCase{"EmptyRejectsText", "", "x", false},
        GlobCase{"DoubleStar", "**", "anything", true},
        GlobCase{"Exact", "/CN=exact", "/CN=exact", true},
        GlobCase{"ExactRejectsLonger", "/CN=exact", "/CN=exact2", false}));

}  // namespace
}  // namespace myproxy::strings
