// Fault-tolerant cluster serving: health-checked routing, session failover
// under chaos, hedged dispatch, and the cluster-aware conservation
// invariant (served + shed == requests, each request resolved exactly once
// no matter how many copies or failover attempts it consumed).
#include "cluster/router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "../testing/helpers.hpp"
#include "cache/calibration.hpp"
#include "cluster/health.hpp"
#include "cluster/serving.hpp"
#include "common/check.hpp"
#include "data/trace_generator.hpp"
#include "eval/speed.hpp"

namespace daop::cluster {
namespace {

// ---------------------------------------------------------------------------
// HealthChecker unit behaviour

TEST(HealthChecker, DisabledNeverEjectsAndNeverSchedulesProbes) {
  HealthOptions opt;  // enabled = false
  const HealthChecker hc(opt, 3);
  EXPECT_TRUE(hc.in_service(0));
  EXPECT_TRUE(hc.in_service(2));
  EXPECT_EQ(hc.next_probe_time(), std::numeric_limits<double>::infinity());
}

TEST(HealthChecker, EjectsAfterConsecutiveMissesAndReadmitsAfterRecovery) {
  HealthOptions opt;
  opt.enabled = true;
  opt.probe_interval_s = 1.0;
  opt.eject_after = 2;
  opt.readmit_after = 3;
  HealthChecker hc(opt, 2);
  EXPECT_DOUBLE_EQ(hc.next_probe_time(), 1.0);

  std::vector<HealthChecker::Probe> probes(2);
  probes[1].responsive = false;
  hc.observe(1.0, probes);  // miss #1: not yet ejected
  EXPECT_TRUE(hc.in_service(1));
  EXPECT_DOUBLE_EQ(hc.next_probe_time(), 2.0);
  hc.observe(2.0, probes);  // miss #2: ejected
  EXPECT_FALSE(hc.in_service(1));
  EXPECT_TRUE(hc.in_service(0));
  ASSERT_EQ(hc.events().size(), 1u);
  EXPECT_TRUE(hc.events()[0].ejected);
  EXPECT_EQ(hc.events()[0].node, 1);
  EXPECT_STREQ(hc.events()[0].reason, "unresponsive");

  probes[1].responsive = true;
  hc.observe(3.0, probes);
  hc.observe(4.0, probes);
  EXPECT_FALSE(hc.in_service(1)) << "readmission needs 3 good probes";
  hc.observe(5.0, probes);
  EXPECT_TRUE(hc.in_service(1));
  EXPECT_EQ(hc.ejections(), 1);
  EXPECT_EQ(hc.readmissions(), 1);
}

TEST(HealthChecker, OneGoodProbeResetsTheBadStreak) {
  HealthOptions opt;
  opt.enabled = true;
  opt.eject_after = 2;
  HealthChecker hc(opt, 1);
  std::vector<HealthChecker::Probe> bad(1), good(1);
  bad[0].slow = true;
  hc.observe(0.25, bad);
  hc.observe(0.50, good);
  hc.observe(0.75, bad);  // streak restarted: still only 1 consecutive
  EXPECT_TRUE(hc.in_service(0));
  hc.observe(1.00, bad);
  EXPECT_FALSE(hc.in_service(0));
  EXPECT_STREQ(hc.events()[0].reason, "slow");
}

// ---------------------------------------------------------------------------
// Options

TEST(ClusterOptions, DispatchPolicyNamesRoundTrip) {
  for (const auto p :
       {DispatchPolicy::kRoundRobin, DispatchPolicy::kLeastLoaded,
        DispatchPolicy::kExpertAffinity}) {
    EXPECT_EQ(parse_dispatch_policy(dispatch_policy_name(p)), p);
  }
  EXPECT_THROW(parse_dispatch_policy("fastest"), CheckError);
}

TEST(ClusterOptions, ValidateRejectsInconsistentKnobs) {
  {
    ClusterOptions o;
    o.failover_backoff_s = 0.0;  // retry loops must advance time
    EXPECT_THROW(o.validate(), CheckError);
  }
  {
    ClusterOptions o;
    o.hedge_ttft_threshold_s = 0.5;  // hedging needs a service estimate
    EXPECT_THROW(o.validate(), CheckError);
  }
  {
    ClusterOptions o;
    o.max_concurrent_per_node = 0;
    EXPECT_THROW(o.validate(), CheckError);
  }
  {
    ClusterOptions o;
    o.crash_node = -3;  // -1 is "none"; below that names no node
    EXPECT_THROW(o.validate(), CheckError);
  }
}

// ---------------------------------------------------------------------------
// Cluster serving harness

ClusterServingOptions cl_options(int nodes) {
  ClusterServingOptions opt;
  opt.n_nodes = nodes;
  opt.base.arrival_rate_rps = 2.0;
  opt.base.n_requests = 16;
  opt.base.min_prompt = 16;
  opt.base.max_prompt = 32;
  opt.base.min_gen = 16;
  opt.base.max_gen = 32;
  opt.base.calibration_seqs = 4;
  opt.cluster.max_concurrent_per_node = 2;
  return opt;
}

ClusterServingResult crun(eval::EngineKind kind,
                          const ClusterServingOptions& opt) {
  return run_cluster_serving_eval(kind, daop::testing::small_mixtral(),
                                  sim::a6000_i9_platform(),
                                  data::sharegpt_calibration(), opt);
}

// The harness takes its sinks from `base` only; a copy set on the router
// options is rejected by validate(), whose message names the base fields.
TEST(ClusterServing, SinksAreSetThroughBaseOnly) {
  obs::SpanTracer tracer;
  obs::TimeSeriesRecorder rec(obs::TimeSeriesOptions{}, {"n0", "cluster"});
  for (int which = 0; which < 3; ++which) {
    SCOPED_TRACE(which);
    ClusterServingOptions opt = cl_options(1);
    if (which == 0) opt.cluster.tracer = &tracer;
    if (which == 1) opt.cluster.tseries = &rec;
    if (which == 2) opt.cluster.record_intervals = true;
    try {
      opt.validate();
      ADD_FAILURE() << "validate() accepted a cluster.* sink";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("base.tracer"), std::string::npos)
          << e.what();
    }
  }
  cl_options(1).validate();
}

TEST(ClusterServing, CalmRoundRobinServesEverythingOnEveryNode) {
  const auto opt = cl_options(4);
  const auto r = crun(eval::EngineKind::Fiddler, opt);
  EXPECT_EQ(r.served, 16);
  EXPECT_EQ(r.shed, 0);
  EXPECT_EQ(r.cluster.crashes, 0);
  EXPECT_EQ(r.cluster.failovers_total(), 0);
  EXPECT_EQ(r.cluster.dispatches, 16);
  for (int i = 0; i < 4; ++i) {
    // 16 requests over 4 calm nodes: perfect rotation.
    EXPECT_EQ(r.cluster.node_dispatched[static_cast<std::size_t>(i)], 4);
    EXPECT_EQ(r.cluster.node_final_state[static_cast<std::size_t>(i)], 2);
  }
  EXPECT_EQ(r.request_log.size(), 16u);
  for (const auto& e : r.request_log) EXPECT_EQ(e.outcome, "served");
}

TEST(ClusterServing, ChaosRunIsDeterministicAcrossReruns) {
  auto opt = cl_options(4);
  opt.base.seed = 1234;
  opt.node_hazards = sim::make_hazard_scenario("cluster", 0.8);
  opt.cluster.health.enabled = true;
  opt.cluster.health.probe_interval_s = 0.5;
  opt.cluster.health.eject_after = 1;
  opt.cluster.service_estimate_s = 2.0;
  opt.cluster.failover_budget = 2;
  opt.cluster.crash_node = 1;
  opt.cluster.crash_time_s = 2.0;
  const auto a = crun(eval::EngineKind::Daop, opt);
  const auto b = crun(eval::EngineKind::Daop, opt);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.shed_node_lost, b.shed_node_lost);
  EXPECT_EQ(a.makespan_s, b.makespan_s);  // bit-identical, not approximate
  EXPECT_EQ(a.ttft_s.mean, b.ttft_s.mean);
  EXPECT_EQ(a.latency_s.p99, b.latency_s.p99);
  EXPECT_EQ(a.cluster.failovers_node_crash, b.cluster.failovers_node_crash);
  EXPECT_EQ(a.cluster.failovers_dead_dispatch,
            b.cluster.failovers_dead_dispatch);
  EXPECT_EQ(a.cluster.replayed_tokens, b.cluster.replayed_tokens);
  EXPECT_EQ(a.cluster.ejections, b.cluster.ejections);
  EXPECT_EQ(a.counters.hazard_stall_s, b.counters.hazard_stall_s);
  ASSERT_EQ(a.request_log.size(), b.request_log.size());
  for (std::size_t i = 0; i < a.request_log.size(); ++i) {
    EXPECT_EQ(a.request_log[i].outcome, b.request_log[i].outcome);
    EXPECT_EQ(a.request_log[i].retries, b.request_log[i].retries);
  }
}

TEST(ClusterServing, NodeCrashFailsOverAndCrashedNodeLeaksNoPins) {
  auto opt = cl_options(3);
  opt.base.arrival_rate_rps = 4.0;  // keep every node busy at crash time
  opt.cluster.health.enabled = true;
  opt.cluster.health.probe_interval_s = 0.5;
  opt.cluster.health.eject_after = 1;
  opt.cluster.failover_budget = 3;
  opt.cluster.failover_backoff_s = 0.05;
  opt.cluster.crash_node = 0;
  opt.cluster.crash_time_s = 2.0;
  const auto r = crun(eval::EngineKind::Fiddler, opt);
  // Conservation under chaos: every request resolves exactly once. The
  // leaked-pin invariant (crashed node included) is DAOP_CHECKed inside
  // run(); reaching here means it held.
  EXPECT_EQ(r.served + r.shed, 16);
  EXPECT_EQ(static_cast<long long>(r.shed), r.shed_node_lost);
  EXPECT_EQ(r.cluster.crashes, 1);
  EXPECT_EQ(r.cluster.node_final_state[0], 0) << "node 0 must end crashed";
  EXPECT_GE(r.cluster.failovers_total(), 1)
      << "a crash at 2s with 4 rps must strand at least one request";
  EXPECT_GT(r.served, 0);
  // The surviving replicas carried the failed-over load.
  EXPECT_GT(r.cluster.node_served[1] + r.cluster.node_served[2], 0);
  const long long node_sum = std::accumulate(
      r.cluster.node_served.begin(), r.cluster.node_served.end(), 0LL);
  EXPECT_EQ(node_sum, r.served);
}

TEST(ClusterServing, FailoverRetriesRerunPrefillAndAccountReplayedTokens) {
  auto opt = cl_options(3);
  opt.base.arrival_rate_rps = 4.0;
  opt.cluster.health.enabled = true;
  opt.cluster.health.probe_interval_s = 0.5;
  opt.cluster.health.eject_after = 1;
  opt.cluster.failover_budget = 3;
  opt.cluster.failover_backoff_s = 0.05;
  opt.cluster.crash_node = 0;
  // Crash late enough that node 0 has sessions mid-decode: their generated
  // tokens are lost and must be accounted as replayed by the re-dispatch.
  opt.cluster.crash_time_s = 6.0;
  const auto r = crun(eval::EngineKind::Fiddler, opt);
  EXPECT_EQ(r.served + r.shed, 16);
  EXPECT_GE(r.cluster.failovers_node_crash, 1);
  EXPECT_GT(r.cluster.replayed_tokens, 0)
      << "mid-decode crash must lose generated tokens to replay";
  // Replayed tokens are attributed to the requests that failed over.
  long long per_request_replayed = 0;
  for (const auto& e : r.request_log) {
    if (e.retries > 0) per_request_replayed += 1;
  }
  EXPECT_GE(per_request_replayed, 1);
}

TEST(ClusterServing, ZeroFailoverBudgetShedsCrashedWork) {
  auto opt = cl_options(2);
  opt.base.arrival_rate_rps = 4.0;
  opt.cluster.failover_budget = 0;
  opt.cluster.crash_node = 0;
  opt.cluster.crash_time_s = 2.0;
  const auto r = crun(eval::EngineKind::Fiddler, opt);
  EXPECT_EQ(r.served + r.shed, 16);
  EXPECT_GE(r.shed_node_lost, 1)
      << "budget 0 turns every lost copy into a shed";
  bool saw_shed_outcome = false;
  for (const auto& e : r.request_log) {
    if (e.outcome == "shed:node_lost") saw_shed_outcome = true;
  }
  EXPECT_TRUE(saw_shed_outcome);
}

TEST(ClusterServing, WithoutHealthCheckingDeadDispatchesKeepHappening) {
  auto opt = cl_options(3);
  opt.base.arrival_rate_rps = 1.0;  // arrivals continue long after the crash
  opt.cluster.failover_budget = 4;
  opt.cluster.crash_node = 1;
  opt.cluster.crash_time_s = 1.0;
  ASSERT_FALSE(opt.cluster.health.enabled);
  const auto r = crun(eval::EngineKind::Fiddler, opt);
  EXPECT_EQ(r.served + r.shed, 16);
  // Naive round-robin keeps targeting the dead replica forever; each such
  // dispatch costs a detection delay and a failover.
  EXPECT_GE(r.cluster.failovers_dead_dispatch, 2);
  EXPECT_EQ(r.cluster.ejections, 0);
}

TEST(ClusterServing, HealthCheckingStopsRoutingToTheCrashedNode) {
  auto naive = cl_options(3);
  naive.base.arrival_rate_rps = 1.0;
  naive.cluster.failover_budget = 4;
  naive.cluster.crash_node = 1;
  naive.cluster.crash_time_s = 1.0;
  auto checked = naive;
  checked.cluster.health.enabled = true;
  checked.cluster.health.probe_interval_s = 0.25;
  checked.cluster.health.eject_after = 2;
  const auto rn = crun(eval::EngineKind::Fiddler, naive);
  const auto rc = crun(eval::EngineKind::Fiddler, checked);
  EXPECT_GE(rc.cluster.ejections, 1);
  EXPECT_EQ(rc.cluster.node_final_state[1], 0);
  EXPECT_LT(rc.cluster.failovers_dead_dispatch,
            rn.cluster.failovers_dead_dispatch)
      << "ejecting the dead node must cut dead dispatches";
  EXPECT_GE(rc.served, rn.served);
}

TEST(ClusterServing, SingleNodeClusterCrashShedsTheRemainingWork) {
  auto opt = cl_options(1);
  opt.base.arrival_rate_rps = 4.0;
  opt.cluster.failover_budget = 5;
  opt.cluster.crash_node = 0;
  opt.cluster.crash_time_s = 2.0;
  const auto r = crun(eval::EngineKind::Fiddler, opt);
  EXPECT_EQ(r.served + r.shed, 16);
  EXPECT_GE(r.shed, 1) << "no replica left: unserved work must shed";
  EXPECT_EQ(static_cast<long long>(r.shed), r.shed_node_lost);
}

TEST(ClusterServing, HedgedDispatchDuplicatesWinsAndCancelsCleanly) {
  auto opt = cl_options(2);
  opt.cluster.dispatch = DispatchPolicy::kLeastLoaded;
  opt.cluster.service_estimate_s = 1.0;
  opt.cluster.hedge_ttft_threshold_s = 1e-6;  // hedge every request
  const auto r = crun(eval::EngineKind::Fiddler, opt);
  EXPECT_EQ(r.served, 16);
  EXPECT_EQ(r.shed, 0);
  EXPECT_EQ(r.cluster.hedges, 16);
  // Exactly one copy wins per hedged request; the loser is cancelled with
  // its pins released (leaked-pin invariant DAOP_CHECKed inside run()).
  EXPECT_EQ(r.cluster.hedge_cancels, 16);
  EXPECT_EQ(r.cluster.dispatches, 32);
  EXPECT_LE(r.cluster.hedge_wins, 16);
}

TEST(ClusterServing, ConservationHoldsAcrossSeedsUnderFullChaos) {
  for (const std::uint64_t seed : {11ull, 222ull, 3333ull}) {
    auto opt = cl_options(4);
    opt.base.seed = seed;
    opt.node_hazards = sim::make_hazard_scenario("cluster", 0.9);
    opt.cluster.health.enabled = true;
    opt.cluster.health.probe_interval_s = 0.5;
    opt.cluster.health.eject_after = 1;
    opt.cluster.health.slow_probe_s = 30.0;
    opt.cluster.service_estimate_s = 2.0;
    opt.cluster.deadline_s = 120.0;
    opt.cluster.failover_budget = 2;
    const auto r = crun(eval::EngineKind::Daop, opt);
    EXPECT_EQ(r.served + r.shed, 16) << "seed " << seed;
    EXPECT_EQ(r.shed_node_lost + r.shed_deadline + r.shed_degraded,
              static_cast<long long>(r.shed))
        << "seed " << seed;
    // Failover re-dispatches are counted once per request in the log.
    long long log_failovers = 0;
    for (const auto& e : r.request_log) log_failovers += e.retries;
    EXPECT_EQ(log_failovers, r.cluster.failovers_total()) << "seed " << seed;
  }
}

TEST(ClusterServing, ConservationAndDeterminismHoldWithDynamicCache) {
  // The full-chaos conservation sweep again, with a per-node dynamic expert
  // cache re-migrating during decode. Node failover replays sessions on a
  // different node's cache; conservation and double-run bit-identity must
  // survive that. `frozen` is the control axis: zero cache activity,
  // identical plumbing.
  for (const cache::CachePolicy policy :
       {cache::CachePolicy::kFrozen, cache::CachePolicy::kLru,
        cache::CachePolicy::kReusePredictor}) {
    for (const std::uint64_t seed : {11ull, 222ull, 3333ull}) {
      auto opt = cl_options(4);
      opt.base.seed = seed;
      opt.node_hazards = sim::make_hazard_scenario("cluster", 0.9);
      opt.cluster.health.enabled = true;
      opt.cluster.health.probe_interval_s = 0.5;
      opt.cluster.health.eject_after = 1;
      opt.cluster.health.slow_probe_s = 30.0;
      opt.cluster.service_estimate_s = 2.0;
      opt.cluster.deadline_s = 120.0;
      opt.cluster.failover_budget = 2;
      opt.cluster.cache.policy = policy;
      opt.cluster.cache.realloc_interval = 2;
      SCOPED_TRACE(std::string(cache::cache_policy_name(policy)) + " seed " +
                   std::to_string(seed));
      const auto a = crun(eval::EngineKind::Daop, opt);
      const auto b = crun(eval::EngineKind::Daop, opt);

      EXPECT_EQ(a.served + a.shed, 16);
      EXPECT_EQ(a.shed_node_lost + a.shed_deadline + a.shed_degraded,
                static_cast<long long>(a.shed));
      // Bit-identity across repeats, cache ledger totals included.
      EXPECT_EQ(a.served, b.served);
      EXPECT_EQ(a.makespan_s, b.makespan_s);
      EXPECT_EQ(a.throughput_tps, b.throughput_tps);
      EXPECT_EQ(a.counters.hazard_stall_s, b.counters.hazard_stall_s);
      EXPECT_EQ(a.cache_fills, b.cache_fills);
      EXPECT_EQ(a.cache_evictions, b.cache_evictions);
      EXPECT_EQ(a.cache_refusals, b.cache_refusals);
      EXPECT_EQ(a.cache_aborts, b.cache_aborts);
      EXPECT_EQ(a.cluster.failovers_total(), b.cluster.failovers_total());
      ASSERT_EQ(a.request_log.size(), b.request_log.size());
      for (std::size_t i = 0; i < a.request_log.size(); ++i) {
        EXPECT_EQ(a.request_log[i].outcome, b.request_log[i].outcome)
            << "request " << i;
      }
      if (policy == cache::CachePolicy::kFrozen) {
        EXPECT_EQ(a.cache_fills, 0);
        EXPECT_EQ(a.cache_evictions, 0);
      } else {
        // Paired ledger totals survive aggregation across nodes.
        EXPECT_EQ(a.cache_fills, a.cache_evictions);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Direct router harness: expert-affinity dispatch

TEST(ClusterRouterDirect, ExpertAffinityRoutesToTheWarmReplica) {
  const auto cfg = daop::testing::small_mixtral();
  const sim::CostModel cm(sim::a6000_i9_platform());
  const model::OpCosts costs(cfg, cm);

  // Node 0 holds experts {0,1}, node 1 holds experts {6,7} on every layer.
  auto placement_with = [&](std::vector<int> experts) {
    cache::Placement p(cfg.n_layers, cfg.n_experts);
    for (int l = 0; l < cfg.n_layers; ++l) {
      p.set_capacity(l, static_cast<int>(experts.size()));
      for (int e : experts) p.move_to_gpu(l, e);
    }
    return p;
  };
  std::vector<ClusterRouter::NodeSeat> seats(2);
  seats[0].engine = eval::make_engine(eval::EngineKind::Fiddler, costs);
  seats[0].initial = placement_with({0, 1});
  seats[1].engine = eval::make_engine(eval::EngineKind::Fiddler, costs);
  seats[1].initial = placement_with({6, 7});

  ClusterOptions opt;
  opt.dispatch = DispatchPolicy::kExpertAffinity;
  ClusterRouter router(std::move(seats), opt);

  // Requests alternate between the two expert neighbourhoods; affinity must
  // sticky-route each to its warm replica regardless of arrival order.
  for (int i = 0; i < 6; ++i) {
    ClusterRouter::Request req;
    req.id = i;
    req.arrival = 0.1 * i;
    req.trace = daop::testing::fixed_trace(cfg, 8, 4,
                                           i % 2 == 0 ? std::vector<int>{0, 1}
                                                      : std::vector<int>{6, 7});
    router.enqueue(std::move(req));
  }
  const auto outcomes = router.run();
  ASSERT_EQ(outcomes.size(), 6u);
  for (const auto& o : outcomes) {
    ASSERT_TRUE(o.served);
    EXPECT_EQ(o.node, o.id % 2 == 0 ? 0 : 1)
        << "request " << o.id << " routed cold";
  }
  EXPECT_EQ(router.total_leaked_pins(), 0);
}

TEST(ClusterRouterDirect, RunTwiceIsRejected) {
  const auto cfg = daop::testing::small_mixtral();
  const sim::CostModel cm(sim::a6000_i9_platform());
  const model::OpCosts costs(cfg, cm);
  std::vector<ClusterRouter::NodeSeat> seats(1);
  seats[0].engine = eval::make_engine(eval::EngineKind::Fiddler, costs);
  seats[0].initial = cache::Placement(cfg.n_layers, cfg.n_experts);
  ClusterRouter router(std::move(seats), ClusterOptions{});
  ClusterRouter::Request req;
  req.trace = daop::testing::fixed_trace(cfg, 4, 2, {0});
  router.enqueue(std::move(req));
  (void)router.run();
  EXPECT_THROW(router.enqueue(ClusterRouter::Request{}), CheckError);
  EXPECT_THROW(router.run(), CheckError);
}

// The options do not know the node count, so the router checks the upper
// end of crash_node, naming the valid range.
TEST(ClusterRouterDirect, CrashNodeOutOfRangeNamesTheValidRange) {
  const auto cfg = daop::testing::small_mixtral();
  const sim::CostModel cm(sim::a6000_i9_platform());
  const model::OpCosts costs(cfg, cm);
  for (const int crash_node : {-1, 1, 2}) {
    SCOPED_TRACE(crash_node);
    std::vector<ClusterRouter::NodeSeat> seats(2);
    for (auto& seat : seats) {
      seat.engine = eval::make_engine(eval::EngineKind::Fiddler, costs);
      seat.initial = cache::Placement(cfg.n_layers, cfg.n_experts);
    }
    ClusterOptions opt;
    opt.crash_node = crash_node;
    if (crash_node < 2) {
      EXPECT_NO_THROW(ClusterRouter(std::move(seats), opt));
      continue;
    }
    try {
      ClusterRouter router(std::move(seats), opt);
      ADD_FAILURE() << "crash_node 2 accepted with 2 nodes";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("0..1, or -1 for none"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace daop::cluster
