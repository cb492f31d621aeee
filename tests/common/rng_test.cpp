#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "../testing/helpers.hpp"
#include "common/check.hpp"

namespace daop {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, StreamIsPinned) {
  // SplitMix64 seeding then xoshiro256**, computed independently: every
  // trace, golden and baseline depends on these exact words.
  Rng rng(2024);
  EXPECT_EQ(rng.next_u64(), 0x0e48715a13d7772eULL);
  EXPECT_EQ(rng.next_u64(), 0xc837f3ee8a7a1065ULL);
  EXPECT_EQ(rng.uniform(),
            static_cast<double>(0x1272314b15ee5001ULL >> 11) * 0x1.0p-53);
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double v = testing::uniform(rng, -3.0, 5.0);
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBothEnds) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(0, 7);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 7);
    saw_lo |= v == 0;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(10);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, NormalMomentsAreStandard) {
  Rng rng(11);
  const int n = 50000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaling) {
  Rng rng(12);
  const int n = 20000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(3.0, 2.0);
    sum += v;
    sq += (v - 3.0) * (v - 3.0);
  }
  EXPECT_NEAR(sum / n, 3.0, 0.06);
  EXPECT_NEAR(std::sqrt(sq / n), 2.0, 0.05);
}

TEST(Rng, ForkIsConsumptionIndependent) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 10; ++i) b.next_u64();  // consume b only
  Rng fa = a.fork(5);
  Rng fb = b.fork(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fa.next_u64(), fb.next_u64());
}

TEST(Rng, ForkStreamsAreDecorrelated) {
  Rng root(42);
  Rng f0 = root.fork(0);
  Rng f1 = root.fork(1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (f0.next_u64() == f1.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, SkipNormalPairsDrawsWhatNormalWould) {
  for (const std::uint64_t pairs : {0ULL, 1ULL, 7ULL, 1000ULL}) {
    Rng drawn(31);
    Rng skipped(31);
    for (std::uint64_t i = 0; i < 2 * pairs; ++i) drawn.normal();
    skipped.skip_normal_pairs(pairs);
    EXPECT_EQ(skipped.words(), drawn.words()) << pairs << " pairs";
    for (int i = 0; i < 5; ++i) {
      const double want = drawn.normal();
      EXPECT_EQ(std::bit_cast<std::uint64_t>(skipped.normal()),
                std::bit_cast<std::uint64_t>(want));
    }
  }
}

TEST(Rng, SeekResumesRecordedWordsWithoutCachedVariate) {
  Rng a(9);
  for (int i = 0; i < 3; ++i) a.normal();  // leaves a cached sine half
  const Rng::Words mark = a.words();
  Rng b(77);
  b.seek(mark);
  EXPECT_EQ(b.words(), mark);
  a.normal();  // the cached half; b dropped it
  EXPECT_EQ(std::bit_cast<std::uint64_t>(b.normal()),
            std::bit_cast<std::uint64_t>(a.normal()));
  EXPECT_EQ(b.next_u64(), a.next_u64());
  // The fork seed is b's own, not the one behind the words.
  EXPECT_EQ(b.fork(3).next_u64(), Rng(77).fork(3).next_u64());
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  testing::shuffle(rng, v);
  EXPECT_NE(v, original);  // astronomically unlikely to match
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

}  // namespace
}  // namespace daop
