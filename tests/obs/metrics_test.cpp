// Unit tests for the observability-plane metrics registry: instruments,
// histogram bucketing/quantiles, and the Prometheus / JSON exporters.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "../testing/helpers.hpp"
#include "common/check.hpp"

namespace daop::obs {
namespace {

TEST(Counter, AccumulatesAndRejectsNegative) {
  Counter c;
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  c.inc();
  c.inc(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  EXPECT_THROW(c.inc(-1.0), CheckError);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  g.set(4.0);
  g.set(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), -2.0);
}

TEST(HistogramData, BucketsObservationsCorrectly) {
  HistogramData h({1.0, 2.0, 4.0});
  h.observe(0.5);   // bucket le=1
  h.observe(1.0);   // boundary lands in le=1 (Prometheus: upper-inclusive)
  h.observe(1.5);   // le=2
  h.observe(3.0);   // le=4
  h.observe(100.0); // +Inf
  EXPECT_EQ(h.counts, (std::vector<long long>{2, 1, 1, 1}));
  EXPECT_EQ(h.total, 5);
  EXPECT_DOUBLE_EQ(h.sum, 0.5 + 1.0 + 1.5 + 3.0 + 100.0);
}

TEST(HistogramData, RejectsUnsortedBounds) {
  EXPECT_THROW(HistogramData({2.0, 1.0}), CheckError);
}

TEST(HistogramData, MergeAddsCountsAndRejectsMismatchedBuckets) {
  HistogramData a({1.0, 2.0});
  HistogramData b({1.0, 2.0});
  a.observe(0.5);
  b.observe(1.5);
  b.observe(9.0);
  a.merge(b);
  EXPECT_EQ(a.counts, (std::vector<long long>{1, 1, 1}));
  EXPECT_EQ(a.total, 3);

  HistogramData c({1.0, 3.0});
  EXPECT_THROW(a.merge(c), CheckError);
}

TEST(HistogramData, MergeIntoUnconfiguredAdoptsOther) {
  HistogramData a;
  HistogramData b({1.0});
  b.observe(0.5);
  a.merge(b);
  EXPECT_EQ(a.total, 1);
  EXPECT_EQ(a.upper_bounds, b.upper_bounds);
}

TEST(HistogramData, BucketWidthCoversAllRegions) {
  const HistogramData h({1.0, 2.0, 4.0});
  using testing::bucket_width;
  EXPECT_DOUBLE_EQ(bucket_width(h, 0.5), 1.0);   // first bucket: [0, 1]
  EXPECT_DOUBLE_EQ(bucket_width(h, 1.5), 1.0);   // (1, 2]
  EXPECT_DOUBLE_EQ(bucket_width(h, 3.0), 2.0);   // (2, 4]
  EXPECT_DOUBLE_EQ(bucket_width(h, 99.0), 2.0);  // +Inf reuses last width
}

TEST(HistogramQuantile, InterpolatesInsideBucket) {
  HistogramData h({10.0});
  for (int i = 0; i < 10; ++i) h.observe(5.0);
  // All 10 observations live in (0, 10]; the q-th observation interpolates
  // linearly across the bucket.
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 1.0), 10.0);
}

TEST(HistogramQuantile, ClampsOverflowToLastFiniteBound) {
  HistogramData h({1.0, 2.0});
  h.observe(50.0);  // +Inf bucket
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.99), 2.0);
}

TEST(HistogramQuantile, EmptyHistogramIsNaNNotGarbage) {
  // Zero observations mean there is no order statistic to estimate: the
  // defined behavior is NaN (PromQL convention), never a garbage number
  // and never UB — for a configured-but-empty histogram AND for a
  // default-constructed (unconfigured) one.
  HistogramData configured({1.0, 2.0});
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_TRUE(std::isnan(histogram_quantile(configured, q))) << q;
  }
  const HistogramData unconfigured;
  EXPECT_TRUE(std::isnan(histogram_quantile(unconfigured, 0.5)));
  // One observation makes it finite again.
  configured.observe(0.5);
  EXPECT_TRUE(std::isfinite(histogram_quantile(configured, 0.5)));
}

TEST(HistogramQuantile, RejectsOutOfRangeQ) {
  HistogramData h({1.0});
  h.observe(0.5);
  EXPECT_THROW(histogram_quantile(h, 1.5), CheckError);
  EXPECT_THROW(histogram_quantile(h, -0.1), CheckError);
}

TEST(DefaultLatencyBuckets, CoversMillisecondsToKiloseconds) {
  const auto b = default_latency_buckets();
  ASSERT_FALSE(b.empty());
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
  EXPECT_DOUBLE_EQ(b.front(), 0.001);
  EXPECT_DOUBLE_EQ(b.back(), 5000.0);
  EXPECT_EQ(b.size(), 21U);  // 7 decades x {1, 2.5, 5}
}

TEST(MetricsRegistry, GetOrCreateReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("daop_test_total", "help", {{"k", "v"}});
  Counter& b = reg.counter("daop_test_total", "help", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_DOUBLE_EQ(b.value(), 1.0);
  // A different label set is a different series in the same family.
  Counter& c = reg.counter("daop_test_total", "help", {{"k", "w"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.family_count(), 1U);
}

TEST(MetricsRegistry, RejectsTypeAndBucketConflicts) {
  MetricsRegistry reg;
  reg.counter("daop_x_total", "h");
  EXPECT_THROW(reg.gauge("daop_x_total", "h"), CheckError);
  reg.histogram("daop_h_seconds", "h", {1.0, 2.0});
  EXPECT_THROW(reg.histogram("daop_h_seconds", "h", {1.0, 3.0}), CheckError);
}

TEST(MetricsRegistry, RejectsInvalidNames) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter("", "h"), CheckError);
  EXPECT_THROW(reg.counter("9starts_with_digit", "h"), CheckError);
  EXPECT_THROW(reg.counter("has space", "h"), CheckError);
}

TEST(MetricsRegistry, PrometheusExportFormat) {
  MetricsRegistry reg;
  reg.counter("daop_runs_total", "Runs.", {{"engine", "DAOP"}}).inc(3.0);
  reg.gauge("daop_busy_fraction", "Busy.").set(0.25);
  Histogram& h = reg.histogram("daop_lat_seconds", "Latency.", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);

  const std::string out = reg.to_prometheus();
  EXPECT_NE(out.find("# HELP daop_runs_total Runs.\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE daop_runs_total counter\n"), std::string::npos);
  EXPECT_NE(out.find("daop_runs_total{engine=\"DAOP\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE daop_busy_fraction gauge\n"), std::string::npos);
  EXPECT_NE(out.find("daop_busy_fraction 0.25\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE daop_lat_seconds histogram\n"),
            std::string::npos);
  // Cumulative buckets: 1, 2, 3 across le=1, le=2, le=+Inf.
  EXPECT_NE(out.find("daop_lat_seconds_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("daop_lat_seconds_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(out.find("daop_lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("daop_lat_seconds_sum 11\n"), std::string::npos);
  EXPECT_NE(out.find("daop_lat_seconds_count 3\n"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusEscapesLabelValues) {
  MetricsRegistry reg;
  reg.counter("daop_esc_total", "h", {{"v", "a\"b\\c\nd"}}).inc();
  const std::string out = reg.to_prometheus();
  EXPECT_NE(out.find("{v=\"a\\\"b\\\\c\\nd\"}"), std::string::npos);
}

TEST(MetricsRegistry, ExportOrderIndependentOfInsertionOrder) {
  MetricsRegistry a;
  a.counter("daop_b_total", "h", {{"x", "1"}}).inc();
  a.counter("daop_a_total", "h").inc(2.0);
  a.counter("daop_b_total", "h", {{"x", "0"}}).inc();

  MetricsRegistry b;
  b.counter("daop_b_total", "h", {{"x", "0"}}).inc();
  b.counter("daop_a_total", "h").inc(2.0);
  b.counter("daop_b_total", "h", {{"x", "1"}}).inc();

  EXPECT_EQ(a.to_prometheus(), b.to_prometheus());
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(MetricsRegistry, JsonExportIsStructurallySound) {
  MetricsRegistry reg;
  reg.counter("daop_runs_total", "Runs.", {{"engine", "DAOP (ours)"}}).inc();
  reg.histogram("daop_lat_seconds", "L.", {1.0}).observe(0.5);
  const std::string out = reg.to_json();
  EXPECT_NE(out.find("{\"families\":["), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"daop_runs_total\""), std::string::npos);
  EXPECT_NE(out.find("\"labels\":{\"engine\":\"DAOP (ours)\"}"),
            std::string::npos);
  EXPECT_NE(out.find("\"le\":\"+Inf\""), std::string::npos);
  long long depth = 0;
  for (char c : out) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(MetricsRegistry, JsonEscapesHostileLabelValues) {
  // Lock down string escaping so the JSON export stays parseable no matter
  // what ends up in a label value: quotes, backslashes, all control
  // characters, and non-ASCII UTF-8 (which passes through byte-for-byte).
  MetricsRegistry reg;
  reg.counter("daop_esc_total", "h",
              {{"quote", "say \"hi\""},
               {"backslash", "C:\\temp\\x"},
               {"ctl", std::string("a\nb\tc\rd\x01" "e")},
               {"utf8", "ü→日本"}})
      .inc();
  const std::string out = reg.to_json();
  EXPECT_NE(out.find("\"quote\":\"say \\\"hi\\\"\""), std::string::npos);
  EXPECT_NE(out.find("\"backslash\":\"C:\\\\temp\\\\x\""), std::string::npos);
  EXPECT_NE(out.find("\"ctl\":\"a\\nb\\tc\\rd\\u0001e\""), std::string::npos);
  // Non-ASCII is NOT escaped: JSON strings are UTF-8.
  EXPECT_NE(out.find("\"utf8\":\"ü→日本\""), std::string::npos);
  // No raw control characters may survive anywhere in the document, and it
  // must still be structurally balanced.
  for (char c : out) {
    EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n')
        << "raw control char in export";
  }
  long long depth = 0;
  for (char c : out) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(MetricsRegistry, ConcurrentIntegerIncrementsStayExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIncs = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, t] {
      for (int i = 0; i < kIncs; ++i) {
        reg.counter("daop_conc_total", "h",
                    {{"shard", t % 2 == 0 ? "even" : "odd"}})
            .inc();
        reg.histogram("daop_conc_seconds", "h", {1.0, 2.0}).observe(1.5);
      }
    });
  }
  for (auto& w : workers) w.join();
  const std::string out = reg.to_prometheus();
  const std::string half = std::to_string(kThreads / 2 * kIncs);
  EXPECT_NE(out.find("daop_conc_total{shard=\"even\"} " + half + "\n"),
            std::string::npos);
  EXPECT_NE(out.find("daop_conc_total{shard=\"odd\"} " + half + "\n"),
            std::string::npos);
  EXPECT_NE(out.find("daop_conc_seconds_count " +
                     std::to_string(kThreads * kIncs) + "\n"),
            std::string::npos);
}

}  // namespace
}  // namespace daop::obs
