#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"

namespace daop {
namespace {

TEST(Stats, SummaryKnownValues) {
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 8);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_NEAR(s.stddev, 2.13809, 1e-4);  // sample stddev
  EXPECT_NEAR(s.ci95, 1.96 * s.stddev / std::sqrt(8.0), 1e-12);
}

TEST(Stats, SingleValueHasNoDispersion) {
  const std::vector<double> v = {3.5};
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95, 0.0);
}

TEST(Stats, SummarizeRejectsEmpty) {
  const std::vector<double> v;
  EXPECT_THROW(summarize(v), CheckError);
}

TEST(Stats, PercentileEndpointsAndMedian) {
  const std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0};  // unsorted input
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.35), 3.5);
}

TEST(Stats, PercentileSingleValueIsThatValue) {
  const std::vector<double> v = {7.25};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 7.25);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 7.25);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 7.25);
}

TEST(Stats, PercentileWithDuplicates) {
  // A run of duplicates pins every interior percentile to that value.
  const std::vector<double> v = {1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 9.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.75), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 9.0);
}

TEST(Stats, SummaryFillsExactPercentiles) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.p50, percentile(v, 0.50));
  EXPECT_DOUBLE_EQ(s.p90, percentile(v, 0.90));
  EXPECT_DOUBLE_EQ(s.p99, percentile(v, 0.99));
  // Order statistics of 1..100 with linear interpolation.
  EXPECT_DOUBLE_EQ(s.p50, 50.5);
  EXPECT_NEAR(s.p90, 90.1, 1e-9);
  EXPECT_NEAR(s.p99, 99.01, 1e-9);
  EXPECT_GE(s.p99, s.p90);
  EXPECT_GE(s.p90, s.p50);
}

}  // namespace
}  // namespace daop
