#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/check.hpp"

namespace daop {
namespace {

FlagParser parse(std::vector<const char*> args) {
  args.insert(args.begin(), "daop_cli");
  return FlagParser(static_cast<int>(args.size()), args.data());
}

TEST(Cli, CommandAndPositionals) {
  const auto p = parse({"speed", "extra1", "extra2"});
  EXPECT_EQ(p.command(), "speed");
  ASSERT_EQ(p.positional().size(), 2U);
  EXPECT_EQ(p.positional()[0], "extra1");
}

TEST(Cli, SpaceAndEqualsForms) {
  const auto p = parse({"speed", "--ecr", "0.25", "--model=phi"});
  EXPECT_DOUBLE_EQ(p.get_double("ecr", 0.0), 0.25);
  EXPECT_EQ(p.get("model", ""), "phi");
}

TEST(Cli, BooleanFlags) {
  const auto p = parse({"speed", "--no-alloc", "--verbose=false"});
  EXPECT_TRUE(p.get_bool("no-alloc"));
  EXPECT_FALSE(p.get_bool("verbose", true));
  EXPECT_FALSE(p.get_bool("absent"));
  EXPECT_TRUE(p.get_bool("absent", true));
}

TEST(Cli, IntParsingAndValidation) {
  const auto p = parse({"speed", "--seqs", "12", "--bad", "12x", "--wrap",
                        "4294967298", "--huge", "99999999999999999999",
                        "--low", "-2147483649", "--min", "-2147483648"});
  EXPECT_EQ(p.get_int("seqs", 0), 12);
  EXPECT_EQ(p.get_int("absent", 7), 7);
  EXPECT_THROW(p.get_int("bad", 0), CheckError);
  // Values outside int are rejected, never wrapped (2^32 + 2 used to parse
  // as 2); so is text that overflows long itself.
  EXPECT_THROW(p.get_int("wrap", 0), CheckError);
  EXPECT_THROW(p.get_int("huge", 0), CheckError);
  EXPECT_THROW(p.get_int("low", 0), CheckError);
  EXPECT_EQ(p.get_int("min", 0), std::numeric_limits<int>::min());
}

TEST(Cli, DoubleValidation) {
  const auto p = parse({"speed", "--rate", "0.5e-1", "--bad", "abc"});
  EXPECT_DOUBLE_EQ(p.get_double("rate", 0.0), 0.05);
  EXPECT_THROW(p.get_double("bad", 0.0), CheckError);
}

TEST(Cli, BooleanValidation) {
  const auto p = parse({"speed", "--flag", "maybe"});
  EXPECT_THROW(p.get_bool("flag"), CheckError);
}

TEST(Cli, DuplicateFlagRejected) {
  EXPECT_THROW(parse({"speed", "--x", "1", "--x", "2"}), CheckError);
}

TEST(Cli, UnusedFlagsReported) {
  const auto p = parse({"speed", "--used", "1", "--typo", "2"});
  EXPECT_EQ(p.get_int("used", 0), 1);
  const auto unused = p.unused();
  ASSERT_EQ(unused.size(), 1U);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Cli, HasMarksUsed) {
  const auto p = parse({"speed", "--present"});
  EXPECT_TRUE(p.has("present"));
  EXPECT_FALSE(p.has("absent"));
  EXPECT_TRUE(p.unused().empty());
}

TEST(Cli, FlagValueFollowedByFlag) {
  // "--a" followed by "--b": a is boolean, b captures "x".
  const auto p = parse({"cmd", "--a", "--b", "x"});
  EXPECT_TRUE(p.get_bool("a"));
  EXPECT_EQ(p.get("b", ""), "x");
}

TEST(Cli, NoCommandIsEmpty) {
  const auto p = parse({});
  EXPECT_TRUE(p.command().empty());
}

}  // namespace
}  // namespace daop
