// Continuous-batching serving scheduler: the iteration-level interleaved
// server must beat the sequential FCFS server on the same request plan
// (the PR's acceptance criterion), conserve requests under timeouts, stay
// deterministic, and keep feeding the existing serving metrics.
#include "eval/continuous_batching.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "../testing/helpers.hpp"
#include "cache/calibration.hpp"
#include "common/check.hpp"
#include "data/trace_generator.hpp"
#include "eval/serving.hpp"

namespace daop::eval {
namespace {

// A load heavy enough that the sequential server queues: requests arrive
// faster than one-at-a-time service can drain them.
ServingOptions saturating_options() {
  ServingOptions opt;
  opt.arrival_rate_rps = 2.0;
  opt.n_requests = 12;
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

TEST(ContinuousBatching, ThroughputAndWaitBeatSequentialServer) {
  // Acceptance criterion: on the same seed and request plan, interleaving
  // up to 4 in-flight sessions on one shared timeline yields strictly
  // higher token throughput and strictly lower mean queue wait than the
  // sequential server, with every request accounted for in both modes.
  for (EngineKind kind : {EngineKind::Daop, EngineKind::Fiddler}) {
    SCOPED_TRACE(engine_kind_name(kind));
    const auto opt = saturating_options();
    const auto seq = run(kind, opt);
    auto cb_opt = opt;
    cb_opt.max_concurrent = 4;
    const auto cb = run(kind, cb_opt);

    EXPECT_GT(cb.throughput_tps, seq.throughput_tps);
    EXPECT_LT(cb.queue_wait_s.mean, seq.queue_wait_s.mean);
    EXPECT_EQ(seq.served + seq.dropped, opt.n_requests);
    EXPECT_EQ(cb.served + cb.dropped, opt.n_requests);
    // Both modes serve the same request plan, so token totals agree.
    EXPECT_EQ(cb.counters.cache_hits + cb.counters.cache_misses,
              seq.counters.cache_hits + seq.counters.cache_misses);
  }
}

TEST(ContinuousBatching, ConservesRequestsUnderTimeouts) {
  auto opt = saturating_options();
  opt.max_concurrent = 4;
  opt.arrival_rate_rps = 20.0;  // everything arrives nearly at once
  opt.n_requests = 16;
  opt.request_timeout_s = 0.5;
  opt.max_request_retries = 1;
  opt.retry_backoff_s = 0.25;
  const auto r = run(EngineKind::Daop, opt);
  EXPECT_EQ(r.served + r.dropped, opt.n_requests);
  EXPECT_GT(r.dropped, 0) << "load was meant to overwhelm the timeout";
  // Every drop burned its retry budget first.
  EXPECT_GE(r.request_retries, r.dropped);
  // Dropped requests count as SLO violations.
  EXPECT_GE(r.slo_violations, r.dropped);
}

TEST(ContinuousBatching, DeterministicAcrossRepeats) {
  auto opt = saturating_options();
  opt.max_concurrent = 4;
  const auto a = run(EngineKind::Daop, opt);
  const auto b = run(EngineKind::Daop, opt);
  EXPECT_DOUBLE_EQ(a.throughput_tps, b.throughput_tps);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_DOUBLE_EQ(a.latency_s.mean, b.latency_s.mean);
  EXPECT_DOUBLE_EQ(a.queue_wait_s.mean, b.queue_wait_s.mean);
  EXPECT_DOUBLE_EQ(a.counters.hazard_stall_s, b.counters.hazard_stall_s);
  EXPECT_EQ(a.counters.cache_hits, b.counters.cache_hits);
  EXPECT_EQ(a.counters.pin_refusals, b.counters.pin_refusals);
}

TEST(ContinuousBatching, EmitsServingMetrics) {
  // Switching the scheduler must not lose any serving telemetry: the same
  // metric families appear, and the inline queue-wait histogram matches the
  // served count.
  obs::MetricsRegistry reg;
  auto opt = saturating_options();
  opt.max_concurrent = 4;
  opt.metrics = &reg;
  const auto r = run(EngineKind::Daop, opt);
  const std::string out = reg.to_prometheus();
  for (const char* fam :
       {"daop_serving_requests_total", "daop_serving_ttft_seconds",
        "daop_serving_tpot_seconds", "daop_serving_latency_seconds",
        "daop_serving_queue_wait_seconds",
        "daop_serving_throughput_tokens_per_second",
        "daop_serving_makespan_seconds", "daop_serving_busy_fraction",
        "daop_expert_execs_total", "daop_pin_refusals_total"}) {
    EXPECT_NE(out.find(fam), std::string::npos) << "missing family " << fam;
  }
  const std::string wait_count = "daop_serving_queue_wait_seconds_count{";
  const auto pos = out.find(wait_count);
  ASSERT_NE(pos, std::string::npos);
  const auto line_end = out.find('\n', pos);
  const std::string line = out.substr(pos, line_end - pos);
  EXPECT_NE(line.find("} " + std::to_string(r.served)), std::string::npos)
      << line;
}

TEST(ContinuousBatching, SchedulerConservesAndOrdersOutcomes) {
  // Direct scheduler-level check: every enqueued request produces exactly
  // one outcome, outcomes come back sorted by id, and in-flight count never
  // exceeds max_concurrent (free slots + active partition the capacity).
  const auto cfg = daop::testing::small_mixtral();
  const sim::CostModel cm(sim::a6000_i9_platform());
  const model::OpCosts costs(cfg, cm);
  auto engine = make_engine(EngineKind::Fiddler, costs);

  const data::TraceGenerator calib(data::sharegpt_calibration(), cfg.n_layers,
                                   cfg.n_experts, cfg.top_k, 99);
  const cache::Placement initial = cache::init_placement_calibrated(
      cfg.n_layers, cfg.n_experts, 0.469,
      cache::calibrate_activation_counts(calib, 4));
  const data::TraceGenerator gen(data::sharegpt_calibration(), cfg.n_layers,
                                 cfg.n_experts, cfg.top_k, 7);

  sim::Timeline tl;
  ContinuousBatchingScheduler::Options sopt;
  sopt.max_concurrent = 3;
  ContinuousBatchingScheduler sched(*engine, tl, initial, sopt);
  for (int i = 0; i < 8; ++i) {
    ContinuousBatchingScheduler::Request req;
    req.id = i;
    req.arrival = 0.1 * i;
    req.trace = gen.generate(i, 12, 8);
    sched.enqueue(std::move(req));
  }
  const auto outcomes = sched.run();
  ASSERT_EQ(outcomes.size(), 8U);
  for (int i = 0; i < 8; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(outcomes[i].id, i);
    EXPECT_TRUE(outcomes[i].served);
    EXPECT_GE(outcomes[i].start, outcomes[i].arrival);
    EXPECT_GT(outcomes[i].end, outcomes[i].start);
    EXPECT_EQ(outcomes[i].result.generated_tokens, 8);
  }
  // With 3 slots and 8 requests, later requests must have waited for a
  // slot: request 7 cannot start before the earliest completion.
  double earliest_end = outcomes[0].end;
  for (const auto& o : outcomes) earliest_end = std::min(earliest_end, o.end);
  EXPECT_GE(outcomes[7].start, earliest_end);
}

TEST(ContinuousBatching, RejectsNonMonotonicArrivals) {
  const auto cfg = daop::testing::small_mixtral();
  const sim::CostModel cm(sim::a6000_i9_platform());
  const model::OpCosts costs(cfg, cm);
  auto engine = make_engine(EngineKind::Fiddler, costs);
  cache::Placement pl(cfg.n_layers, cfg.n_experts);
  sim::Timeline tl;
  ContinuousBatchingScheduler sched(*engine, tl, pl, {});
  const data::TraceGenerator gen(data::sharegpt_calibration(), cfg.n_layers,
                                 cfg.n_experts, cfg.top_k, 7);
  ContinuousBatchingScheduler::Request a;
  a.id = 0;
  a.arrival = 2.0;
  a.trace = gen.generate(0, 8, 4);
  sched.enqueue(std::move(a));
  ContinuousBatchingScheduler::Request b;
  b.id = 1;
  b.arrival = 1.0;  // out of order
  b.trace = gen.generate(1, 8, 4);
  EXPECT_THROW(sched.enqueue(std::move(b)), CheckError);
}

// Same rule as ClusterRouter::enqueue: a per-request deadline budget is
// either 0 (use the plane's default) or positive, never negative or NaN.
TEST(ContinuousBatching, RejectsNegativeOrNanDeadlines) {
  const auto cfg = daop::testing::small_mixtral();
  const sim::CostModel cm(sim::a6000_i9_platform());
  const model::OpCosts costs(cfg, cm);
  auto engine = make_engine(EngineKind::Fiddler, costs);
  cache::Placement pl(cfg.n_layers, cfg.n_experts);
  sim::Timeline tl;
  ContinuousBatchingScheduler sched(*engine, tl, pl, {});
  const data::TraceGenerator gen(data::sharegpt_calibration(), cfg.n_layers,
                                 cfg.n_experts, cfg.top_k, 7);
  long long id = 0;
  for (const double bad : {-1.0, std::nan("")}) {
    ContinuousBatchingScheduler::Request r;
    r.id = id++;
    r.deadline_s = bad;
    r.trace = gen.generate(0, 8, 4);
    EXPECT_THROW(sched.enqueue(std::move(r)), CheckError) << bad;
  }
  for (const double ok : {0.0, 5.0}) {
    ContinuousBatchingScheduler::Request r;
    r.id = id++;
    r.deadline_s = ok;
    r.trace = gen.generate(1, 8, 4);
    EXPECT_NO_THROW(sched.enqueue(std::move(r))) << ok;
  }
}

}  // namespace
}  // namespace daop::eval
