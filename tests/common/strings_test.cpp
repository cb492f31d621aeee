#include "common/strings.hpp"

#include <gtest/gtest.h>

namespace daop {
namespace {

TEST(Strings, FmtF) {
  EXPECT_EQ(fmt_f(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_f(3.14159, 0), "3");
  EXPECT_EQ(fmt_f(-1.5, 1), "-1.5");
  EXPECT_EQ(fmt_f(2.0, 3), "2.000");
}

TEST(Strings, FmtPct) {
  EXPECT_EQ(fmt_pct(0.469), "46.9%");
  EXPECT_EQ(fmt_pct(1.0, 0), "100%");
  EXPECT_EQ(fmt_pct(0.05, 2), "5.00%");
}

TEST(Strings, PadLeftAlign) {
  EXPECT_EQ(pad("ab", 5), "ab   ");
  EXPECT_EQ(pad("ab", 5, false), "   ab");
  EXPECT_EQ(pad("abcdef", 3), "abcdef");  // never truncates
}

TEST(Strings, FmtBytes) {
  EXPECT_EQ(fmt_bytes(512), "512.0 B");
  EXPECT_EQ(fmt_bytes(2048), "2.0 KiB");
  EXPECT_EQ(fmt_bytes(352.0 * 1024 * 1024), "352.0 MiB");
  EXPECT_EQ(fmt_bytes(48.0 * 1024 * 1024 * 1024), "48.0 GiB");
}

}  // namespace
}  // namespace daop
