// Pins the contract of common/check.hpp: the exact CheckError text of each
// macro (condition, file:line, message or operand values), that a passing
// condition is evaluated exactly once, and that a DAOP_CHECK_MSG message is
// evaluated only when its check fails.
#include "common/check.hpp"

#include <gtest/gtest.h>

#include <string>

namespace daop {
namespace {

/// The what() of the CheckError `f` throws ("" if it throws none).
template <class F>
std::string failure_of(F&& f) {
  try {
    f();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

/// "<file>:<line>" for a line of this file.
std::string here(int line) {
  return std::string(__FILE__) + ":" + std::to_string(line);
}

// Each failing check below sits on the same line as the `line = __LINE__`
// that records where it is, so the expected file:line is exact.

TEST(Check, PlainCheckNamesConditionAndLocation) {
  const int x = 3;
  int line = 0;
  const std::string what =
      failure_of([&] { line = __LINE__; DAOP_CHECK(x > 5); });
  EXPECT_EQ(what, "DAOP check failed: x > 5 at " + here(line));
}

TEST(Check, MsgCheckAppendsTheStreamedMessage) {
  const int x = 3;
  int line = 0;
  std::string what = failure_of([&] {
    line = __LINE__; DAOP_CHECK_MSG(x > 5, "x is " << x << " < " << 5.5);
  });
  EXPECT_EQ(what, "DAOP check failed: x > 5 at " + here(line) +
                      " — x is 3 < 5.5");
  // An empty message adds no separator.
  what = failure_of([&] { line = __LINE__; DAOP_CHECK_MSG(1 + 1 == 3, ""); });
  EXPECT_EQ(what, "DAOP check failed: 1 + 1 == 3 at " + here(line));
}

TEST(Check, ComparisonChecksPrintBothOperands) {
  const int a = 2;
  const double b = 7.5;
  const std::string s = "abc";
  int line = 0;
  const auto expect = [&](const std::string& what, const std::string& expr,
                          const std::string& operands) {
    EXPECT_EQ(what, "DAOP check failed: " + expr + " at " + here(line) +
                        " — " + operands);
  };
  expect(failure_of([&] { line = __LINE__; DAOP_CHECK_EQ(a, 3); }), "a == 3",
         "lhs=2 rhs=3");
  expect(failure_of([&] { line = __LINE__; DAOP_CHECK_NE(s, "abc"); }),
         "s != \"abc\"", "lhs=abc rhs=abc");
  expect(failure_of([&] { line = __LINE__; DAOP_CHECK_LT(b, a); }), "b < a",
         "lhs=7.5 rhs=2");
  expect(failure_of([&] { line = __LINE__; DAOP_CHECK_LE(b, 1); }), "b <= 1",
         "lhs=7.5 rhs=1");
  expect(failure_of([&] { line = __LINE__; DAOP_CHECK_GT(a, a + 1); }),
         "a > a + 1", "lhs=2 rhs=3");
  expect(failure_of([&] { line = __LINE__; DAOP_CHECK_GE(a * 2, b); }),
         "a * 2 >= b", "lhs=4 rhs=7.5");
}

TEST(Check, PassingComparisonsThrowNothing) {
  EXPECT_NO_THROW({
    DAOP_CHECK_EQ(1, 1);
    DAOP_CHECK_NE(1, 2);
    DAOP_CHECK_LT(1, 2);
    DAOP_CHECK_LE(2, 2);
    DAOP_CHECK_GT(2, 1);
    DAOP_CHECK_GE(2, 2);
  });
}

TEST(Check, PassingConditionIsEvaluatedOnce) {
  int n = 0;
  DAOP_CHECK(++n > 0);
  EXPECT_EQ(n, 1);
  DAOP_CHECK_MSG(++n > 0, "unused");
  EXPECT_EQ(n, 2);
  int lhs = 0;
  int rhs = 0;
  DAOP_CHECK_EQ(++lhs, ++rhs);
  EXPECT_EQ(lhs, 1);
  EXPECT_EQ(rhs, 1);
  DAOP_CHECK_LE(++lhs, ++rhs + 1);
  EXPECT_EQ(lhs, 2);
  EXPECT_EQ(rhs, 2);
}

TEST(Check, MessageIsEvaluatedOnlyOnFailure) {
  int built = 0;
  const auto message = [&] {
    ++built;
    return std::string("built");
  };
  DAOP_CHECK_MSG(true, message());
  EXPECT_EQ(built, 0);
  const std::string what =
      failure_of([&] { DAOP_CHECK_MSG(false, message()); });
  EXPECT_EQ(built, 1);
  EXPECT_NE(what.find(" — built"), std::string::npos) << what;
}

TEST(Check, FailedConditionIsEvaluatedOnce) {
  int n = 0;
  failure_of([&] { DAOP_CHECK(++n < 0); });
  EXPECT_EQ(n, 1);
  failure_of([&] { DAOP_CHECK_MSG(++n < 0, "n=" << n); });
  EXPECT_EQ(n, 2);
}

}  // namespace
}  // namespace daop
