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

// ---------------------------------------------------------------------------
// Output-flag support matrix: every report flag must be available in every
// reporting mode. This is the regression net for the historical asymmetry
// where serve-cluster silently lacked --profile-out — the write helpers in
// daop_cli CHECK against this matrix at runtime, and this test pins the
// matrix itself to "all flags, all modes".

TEST(CliOutputMatrix, EveryOutputFlagIsSupportedInEveryMode) {
  ASSERT_FALSE(cli_output_flag_matrix().empty());
  ASSERT_FALSE(cli_output_modes().empty());
  for (const CliOutputFlagSpec& spec : cli_output_flag_matrix()) {
    for (const std::string& mode : cli_output_modes()) {
      EXPECT_TRUE(cli_output_flag_supported(spec.flag, mode))
          << "--" << spec.flag << " missing from mode '" << mode << "'";
    }
  }
}

TEST(CliOutputMatrix, CoversTheThreeReportFamilies) {
  bool metrics = false, profile = false, tseries = false;
  for (const CliOutputFlagSpec& spec : cli_output_flag_matrix()) {
    if (spec.flag == "metrics-out") metrics = true;
    if (spec.flag == "profile-out") profile = true;
    if (spec.flag == "tseries-out") tseries = true;
  }
  EXPECT_TRUE(metrics);
  EXPECT_TRUE(profile);
  EXPECT_TRUE(tseries);
}

TEST(CliOutputMatrix, UnknownFlagsAndModesAreUnsupported) {
  EXPECT_FALSE(cli_output_flag_supported("metrics-out", "sweep"));
  EXPECT_FALSE(cli_output_flag_supported("bogus-out", "serve"));
}

TEST(CliOutputMatrix, CompanionFlagsRideWithTheirPrimary) {
  for (const CliOutputFlagSpec& spec : cli_output_flag_matrix()) {
    if (spec.flag != "tseries-out") continue;
    bool window = false, rules = false;
    for (const std::string& c : spec.companions) {
      if (c == "tseries-window") window = true;
      if (c == "slo-rules") rules = true;
    }
    EXPECT_TRUE(window) << "--tseries-window must ride with --tseries-out";
    EXPECT_TRUE(rules) << "--slo-rules must ride with --tseries-out";
  }
}

}  // namespace
}  // namespace daop
