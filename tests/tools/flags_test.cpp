// The shared flag parser (src/cli/flags.hpp): both value spellings, the
// one optional-value form, and every malformed input it must refuse.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cli/flags.hpp"

namespace tracemod::cli {
namespace {

Args parse_test(const std::vector<std::string>& args, std::size_t max_pos = 0) {
  return parse("test", args,
               {{"--n", Flag::kValue, "N"},
                {"--x", Flag::kValue, "X"},
                {"--on"},
                {"--audit", Flag::kOptional, "FILE"},
                {"--poison", Flag::kValue, "SPEC"}},
               0, max_pos);
}

TEST(Flags, BothValueSpellingsParseTheSame) {
  Args a = parse_test({"--n", "12", "--x", "1.5"});
  Args b = parse_test({"--n=12", "--x=1.5"});
  for (Args* p : {&a, &b}) {
    ASSERT_TRUE(p->ok());
    int n = 0;
    double x = 0;
    EXPECT_TRUE(p->integer("--n", &n));
    EXPECT_TRUE(p->number("--x", &x));
    EXPECT_EQ(n, 12);
    EXPECT_EQ(x, 1.5);
    EXPECT_TRUE(p->ok());
  }
}

TEST(Flags, OptionalValueTakesItsValueOnlyAfterEquals) {
  Args bare = parse_test({"--audit"});
  ASSERT_TRUE(bare.ok());
  ASSERT_TRUE(bare.has("--audit"));
  EXPECT_EQ(*bare.value("--audit"), "");

  Args given = parse_test({"--audit=f.json"});
  ASSERT_TRUE(given.ok());
  EXPECT_EQ(*given.value("--audit"), "f.json");

  // The next token stays a positional: it is never swallowed.
  Args spaced = parse_test({"--audit", "f.json"}, 1);
  ASSERT_TRUE(spaced.ok());
  EXPECT_EQ(*spaced.value("--audit"), "");
  ASSERT_EQ(spaced.pos().size(), 1u);
  EXPECT_EQ(spaced.pos()[0], "f.json");
}

TEST(Flags, UnknownFlagFails) {
  EXPECT_FALSE(parse_test({"--bogus"}).ok());
  EXPECT_FALSE(parse_test({"--bogus=1"}).ok());
  EXPECT_FALSE(parse_test({"--"}).ok());
}

TEST(Flags, MissingValueFails) {
  EXPECT_FALSE(parse_test({"--n"}).ok());
  EXPECT_FALSE(parse_test({"--n="}).ok());
  EXPECT_FALSE(parse_test({"--audit="}).ok());
}

TEST(Flags, SwitchTakesNoValue) {
  EXPECT_TRUE(parse_test({"--on"}).ok());
  EXPECT_FALSE(parse_test({"--on=1"}).ok());
}

TEST(Flags, PositionalCountIsChecked) {
  EXPECT_FALSE(parse_test({"stray"}).ok());
  EXPECT_TRUE(parse_test({"one"}, 1).ok());
  EXPECT_FALSE(parse("test", {}, {}, 1, 1).ok());
}

TEST(Flags, TrailingGarbageFailsTheParse) {
  for (const char* bad : {"12x", "1.5", " 12", "12 ", "+12", "0x10", ""}) {
    Args p = parse_test({"--n", bad});
    ASSERT_TRUE(p.ok()) << bad;
    int n = 7;
    EXPECT_FALSE(p.integer("--n", &n)) << bad;
    EXPECT_FALSE(p.ok()) << bad;
    EXPECT_EQ(n, 7) << bad;  // untouched
  }
  for (const char* bad : {"10ms", "1.5.2", "soon", " 1"}) {
    Args p = parse_test({"--x", bad});
    double x = 0;
    EXPECT_FALSE(p.number("--x", &x)) << bad;
    EXPECT_FALSE(p.ok()) << bad;
  }
}

TEST(Flags, NonFiniteNumberFails) {
  for (const char* bad : {"inf", "-inf", "nan", "1e999"}) {
    Args p = parse_test({"--x", bad});
    double x = 0;
    EXPECT_FALSE(p.number("--x", &x)) << bad;
    EXPECT_FALSE(p.ok()) << bad;
  }
  Args ok = parse_test({"--x", "-2.5e-3"});
  double x = 0;
  EXPECT_TRUE(ok.number("--x", &x));
  EXPECT_EQ(x, -2.5e-3);
}

TEST(Flags, IntegersAreRangeChecked) {
  {
    Args p = parse_test({"--n", "0"});
    int n = 5;
    EXPECT_FALSE(p.integer("--n", &n, 1));  // below the floor
    EXPECT_FALSE(p.ok());
  }
  {
    Args p = parse_test({"--n", "-1"});
    std::uint64_t n = 5;
    EXPECT_FALSE(p.integer("--n", &n));  // unsigned: no sign
    EXPECT_FALSE(p.ok());
  }
  {
    Args p = parse_test({"--n", "99999999999999999999999"});
    std::uint64_t n = 5;
    EXPECT_FALSE(p.integer("--n", &n));  // overflows 64 bits
  }
  {
    Args p = parse_test({"--n", "18446744073709551615"});
    std::uint64_t n = 5;
    EXPECT_TRUE(p.integer("--n", &n));
    EXPECT_EQ(n, 18446744073709551615ull);
  }
}

TEST(Flags, ThreadCountsAreCapped) {
  for (const char* bad : {"-1", "1e12", "4294967295", "257"}) {
    Args p = parse_test({"--n", bad});
    unsigned t = 0;
    EXPECT_FALSE(p.threads("--n", &t)) << bad;
    EXPECT_FALSE(p.ok()) << bad;
  }
  Args p = parse_test({"--n", "256"});
  unsigned t = 0;
  EXPECT_TRUE(p.threads("--n", &t));
  EXPECT_EQ(t, kMaxThreads);
}

TEST(Flags, AbsentFlagLeavesTheDefault) {
  Args p = parse_test({});
  int n = 3;
  double x = 0.5;
  std::string s = "keep";
  EXPECT_FALSE(p.integer("--n", &n));
  EXPECT_FALSE(p.number("--x", &x));
  EXPECT_FALSE(p.str("--x", &s));
  EXPECT_TRUE(p.ok());
  EXPECT_EQ(n, 3);
  EXPECT_EQ(x, 0.5);
  EXPECT_EQ(s, "keep");
}

TEST(Flags, RepeatedFlagsKeepEveryValueAndTheLastWins) {
  Args p = parse_test({"--poison", "a", "--poison=b", "--n", "1", "--n", "2"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.values("--poison"), (std::vector<std::string>{"a", "b"}));
  int n = 0;
  EXPECT_TRUE(p.integer("--n", &n));
  EXPECT_EQ(n, 2);
}

TEST(Flags, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,b", ','), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Flags, UsageLineListsEveryFlag) {
  const std::string line =
      usage_line("prog", {{"--n", Flag::kValue, "N"},
                          {"--on"},
                          {"--audit", Flag::kOptional, "FILE"}});
  EXPECT_EQ(line, "usage: prog [--n N] [--on] [--audit[=FILE]]\n");
}

}  // namespace
}  // namespace tracemod::cli
