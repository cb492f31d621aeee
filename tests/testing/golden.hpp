// Shared helpers of the byte-identical golden-snapshot tests: exact text
// renderings of doubles and hashes, and the compare-or-regenerate step.
//
// Regenerate a golden (only after an INTENTIONAL behaviour change) by
// running its test with DAOP_UPDATE_GOLDENS=1.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace daop::testing {

/// Hexfloat rendering: two doubles render identically iff they are
/// bit-identical (modulo -0.0/NaN, which the snapshots never contain).
inline std::string hexf(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// 64-bit FNV-1a hash of `s` as 16 lowercase hex digits.
inline std::string fnv1a_hex(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Compares `actual` with the golden file at `path` line by line; a
/// failure names the first diverging "[...]" block. With DAOP_UPDATE_GOLDENS
/// set it rewrites the file instead and skips the test.
inline void expect_matches_golden(const char* path, const std::string& actual) {
  if (std::getenv("DAOP_UPDATE_GOLDENS") != nullptr) {
    std::ofstream f(path);
    ASSERT_TRUE(f.good()) << "cannot write " << path;
    f << actual;
    GTEST_SKIP() << "golden regenerated at " << path;
  }
  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << "missing golden file " << path
                        << " (regenerate with DAOP_UPDATE_GOLDENS=1)";
  std::ostringstream expected;
  expected << f.rdbuf();
  std::istringstream ea(expected.str());
  std::istringstream aa(actual);
  std::string eline;
  std::string aline;
  std::string block = "<header>";
  int line_no = 0;
  while (std::getline(ea, eline)) {
    ++line_no;
    if (!eline.empty() && eline.front() == '[') block = eline;
    ASSERT_TRUE(static_cast<bool>(std::getline(aa, aline)))
        << "snapshot truncated in " << block;
    ASSERT_EQ(eline, aline) << "first divergence in " << block << " (line "
                            << line_no << ")";
  }
  EXPECT_FALSE(static_cast<bool>(std::getline(aa, aline)))
      << "snapshot has extra content after " << block;
}

}  // namespace daop::testing
