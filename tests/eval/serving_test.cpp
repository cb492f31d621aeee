#include "eval/serving.hpp"

#include <gtest/gtest.h>

#include "../testing/helpers.hpp"
#include "common/check.hpp"

namespace daop::eval {
namespace {

ServingOptions fast_options() {
  ServingOptions opt;
  opt.arrival_rate_rps = 0.05;
  opt.n_requests = 6;
  opt.min_prompt = 16;
  opt.max_prompt = 32;
  opt.min_gen = 16;
  opt.max_gen = 32;
  opt.calibration_seqs = 4;
  return opt;
}

ServingResult run(EngineKind kind, const ServingOptions& opt) {
  return run_serving_eval(kind, daop::testing::small_mixtral(),
                          sim::a6000_i9_platform(),
                          data::sharegpt_calibration(), opt);
}

TEST(Serving, ProducesConsistentMetrics) {
  const auto r = run(EngineKind::Daop, fast_options());
  EXPECT_EQ(r.requests, 6);
  EXPECT_GT(r.throughput_tps, 0.0);
  EXPECT_GT(r.makespan_s, 0.0);
  EXPECT_GE(r.busy_fraction, 0.0);
  EXPECT_LE(r.busy_fraction, 1.0);
  // Latency includes queueing + service, so it dominates both components.
  EXPECT_GE(r.latency_s.mean, r.queue_wait_s.mean);
  EXPECT_GE(r.latency_s.mean, r.ttft_s.mean);
  EXPECT_GE(r.ttft_s.mean, r.queue_wait_s.mean);
}

TEST(Serving, Deterministic) {
  const auto a = run(EngineKind::Fiddler, fast_options());
  const auto b = run(EngineKind::Fiddler, fast_options());
  EXPECT_DOUBLE_EQ(a.latency_s.mean, b.latency_s.mean);
  EXPECT_DOUBLE_EQ(a.throughput_tps, b.throughput_tps);
}

TEST(Serving, HigherLoadMeansMoreQueueing) {
  auto light = fast_options();
  light.arrival_rate_rps = 0.001;  // essentially idle server
  auto heavy = fast_options();
  heavy.arrival_rate_rps = 10.0;  // everything arrives at once
  const auto rl = run(EngineKind::Daop, light);
  const auto rh = run(EngineKind::Daop, heavy);
  EXPECT_GT(rh.queue_wait_s.mean, rl.queue_wait_s.mean);
  EXPECT_GT(rh.busy_fraction, rl.busy_fraction);
}

TEST(Serving, FasterEngineServesSameLoadWithLowerLatency) {
  auto opt = fast_options();
  opt.arrival_rate_rps = 0.05;
  const auto daop = run(EngineKind::Daop, opt);
  const auto ondemand = run(EngineKind::MoEOnDemand, opt);
  EXPECT_LT(daop.latency_s.mean, ondemand.latency_s.mean);
  EXPECT_GT(daop.throughput_tps, ondemand.throughput_tps);
}

TEST(Serving, HistogramPercentilesAgreeWithExactWithinOneBucket) {
  // The bucketed TTFT/TPOT/latency histograms are estimates; the Summary
  // percentiles are exact order statistics. The histogram_quantile estimate
  // can be off by at most the width of the bucket the exact value falls in.
  auto opt = fast_options();
  opt.n_requests = 16;
  const auto r = run(EngineKind::Daop, opt);
  ASSERT_EQ(r.ttft_hist.total, r.served);
  ASSERT_EQ(r.tpot_hist.total, r.served);
  ASSERT_EQ(r.latency_hist.total, r.served);
  struct Case {
    const char* name;
    const obs::HistogramData* hist;
    const Summary* exact;
  };
  const Case cases[] = {{"ttft", &r.ttft_hist, &r.ttft_s},
                        {"tpot", &r.tpot_hist, &r.tpot_s},
                        {"latency", &r.latency_hist, &r.latency_s}};
  const struct {
    double q;
    double Summary::*field;
  } quantiles[] = {{0.50, &Summary::p50},
                   {0.90, &Summary::p90},
                   {0.99, &Summary::p99}};
  for (const Case& c : cases) {
    for (const auto& [q, field] : quantiles) {
      const double exact = c.exact->*field;
      const double est = obs::histogram_quantile(*c.hist, q);
      EXPECT_NEAR(est, exact,
                  testing::bucket_width(*c.hist, exact) + 1e-12)
          << c.name << " q=" << q;
    }
  }
}

TEST(Serving, TpotSummaryMatchesPerRequestRates) {
  const auto r = run(EngineKind::Fiddler, fast_options());
  EXPECT_EQ(r.tpot_s.n, r.served);
  EXPECT_GT(r.tpot_s.mean, 0.0);
  // Per-token time is a fraction of a full request's latency.
  EXPECT_LT(r.tpot_s.max, r.latency_s.max);
}

TEST(Serving, RejectsBadOptions) {
  auto opt = fast_options();
  opt.arrival_rate_rps = 0.0;
  EXPECT_THROW(run(EngineKind::Daop, opt), CheckError);
  opt = fast_options();
  opt.min_prompt = 64;
  opt.max_prompt = 32;
  EXPECT_THROW(run(EngineKind::Daop, opt), CheckError);
}

}  // namespace
}  // namespace daop::eval
