// Parallel node windows: ClusterRouter::run steps the nodes concurrently
// between the router events that need every node in step and merges their
// journals in the one-event-at-a-time order. Attaching a tracer makes every
// window one event long, which reproduces that order by construction, so a
// traced run is the reference: every output of an untraced (parallel) run
// must match it field by field.
//
// The grid crosses seeds, calm vs chaos (brownouts plus a node crash),
// checkpointing off vs on (warm restores, which stop a node's window and
// run on the caller), time series off vs on (ts_tick samples every node's
// gauges at every merged event) and least-loaded vs expert-affinity
// dispatch, plus one slow-probe case (probe rounds read node state, so they
// cut the windows too).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "../testing/helpers.hpp"
#include "cluster/router.hpp"
#include "eval/serving_core.hpp"
#include "eval/speed.hpp"
#include "model/op_costs.hpp"
#include "obs/alerting.hpp"
#include "obs/span_tracer.hpp"
#include "obs/timeseries.hpp"
#include "sim/energy.hpp"
#include "sim/fault_model.hpp"

namespace daop::cluster {
namespace {

constexpr int kNodes = 4;

struct Case {
  std::uint64_t seed = 3;
  bool chaos = false;
  bool checkpoint = false;
  bool tseries = false;
  DispatchPolicy dispatch = DispatchPolicy::kLeastLoaded;
  double slow_probe_s = 0.0;

  std::string name() const {
    return "seed " + std::to_string(seed) + (chaos ? " chaos" : " calm") +
           (checkpoint ? " ckpt" : "") + (tseries ? " tseries" : "") + " " +
           dispatch_policy_name(dispatch) +
           (slow_probe_s > 0.0 ? " slow-probe" : "");
  }
};

struct NodeRun {
  double energy_j = 0.0;
  double hazard_stall_s = 0.0;
  double span_s = 0.0;
};

struct ClusterRun {
  std::vector<ClusterRouter::Outcome> outcomes;
  ClusterStats stats;
  RecoveryStats recovery;
  std::vector<HealthEvent> health;
  std::string tseries_json;
  std::size_t alert_episodes = 0;
  std::vector<NodeRun> nodes;
};

/// One cluster run of `c`, built the way cluster/serving.cpp builds its
/// router; `traced` attaches a span tracer (one-event windows).
ClusterRun run_case(const Case& c, bool traced) {
  const model::ModelConfig cfg = daop::testing::small_mixtral();
  const sim::PlatformSpec platform = sim::a6000_i9_platform();
  const sim::CostModel cm(platform);
  const model::OpCosts costs(cfg, cm);

  eval::ServingOptions base;
  base.arrival_rate_rps = 4.0;  // keep every node busy
  base.n_requests = 24;
  base.min_prompt = 32;
  base.max_prompt = 64;
  base.min_gen = 16;
  base.max_gen = 32;
  base.calibration_seqs = 4;
  base.seed = c.seed;
  const eval::RequestPlan plan(cfg, data::sharegpt_calibration(), base);
  const cache::Placement placement = eval::calibrated_initial_placement(
      cfg, base.ecr, base.calibration_seqs, base.seed);

  const sim::HazardScenario hazards =
      c.chaos ? sim::make_hazard_scenario("cluster", 0.6)
              : sim::HazardScenario{};
  std::vector<ClusterRouter::NodeSeat> seats;
  for (int i = 0; i < kNodes; ++i) {
    ClusterRouter::NodeSeat seat;
    seat.engine = eval::make_engine(eval::EngineKind::Daop, costs);
    const std::uint64_t node_seed =
        c.seed ^ 0xC105731ULL ^
        (static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ULL);
    auto fault = std::make_unique<sim::FaultModel>(hazards, node_seed);
    if (fault->enabled()) seat.fault = std::move(fault);
    seat.initial = placement;
    seats.push_back(std::move(seat));
  }

  obs::TimeSeriesOptions ts_opt;
  ts_opt.window_s = c.tseries ? 1.0 : 0.0;
  std::vector<std::string> channels;
  for (int i = 0; i < kNodes; ++i) {
    channels.push_back("node" + std::to_string(i));
  }
  channels.push_back("cluster");
  obs::TimeSeriesRecorder rec(ts_opt, channels);
  obs::SpanTracer tracer;

  ClusterOptions opt;
  opt.max_concurrent_per_node = 2;
  opt.dispatch = c.dispatch;
  opt.service_estimate_s = 0.5;
  opt.failover_budget = 3;
  opt.failover_backoff_s = 0.05;
  if (c.chaos) {
    opt.health.enabled = true;
    opt.health.probe_interval_s = 0.5;
    opt.health.eject_after = 1;
    opt.crash_node = 1;
    opt.crash_time_s = 2.0;
  }
  if (c.slow_probe_s > 0.0) {
    opt.health.enabled = true;
    opt.health.probe_interval_s = 0.25;
    opt.health.slow_probe_s = c.slow_probe_s;
  }
  if (c.checkpoint) opt.checkpoint.every_steps = 2;
  if (c.tseries) opt.tseries = &rec;
  if (traced) opt.tracer = &tracer;

  ClusterRouter router(std::move(seats), opt);
  for (const eval::RequestPlan::Request& p : plan.requests()) {
    router.enqueue({p.id, p.arrival, p.deadline_s, plan.trace(p)});
  }
  ClusterRun r;
  r.outcomes = router.run();
  r.stats = router.stats();
  r.recovery = router.recovery();
  r.health = router.health_events();
  for (int i = 0; i < kNodes; ++i) {
    const sim::Timeline& tl = router.node_timeline(i);
    r.nodes.push_back({sim::compute_energy(platform, tl, tl.span()).total_j,
                       tl.hazard_stall_s(), tl.span()});
  }
  if (c.tseries) {
    double makespan = 0.0;
    for (const auto& o : r.outcomes) makespan = std::max(makespan, o.end);
    rec.finalize(makespan);
    const obs::AlertReport report =
        obs::evaluate_slo_rules(obs::default_slo_rules(), rec);
    r.alert_episodes = report.episodes.size();
    r.tseries_json = obs::to_tseries_json(
        rec, report, obs::correlate_incidents(report, rec, 2.0));
  }
  return r;
}

void expect_same_outcome(const ClusterRouter::Outcome& a,
                         const ClusterRouter::Outcome& b) {
  SCOPED_TRACE("request " + std::to_string(a.id));
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.arrival, b.arrival);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.shed_reason, b.shed_reason);
  EXPECT_EQ(a.node, b.node);
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.replayed_tokens, b.replayed_tokens);
  EXPECT_EQ(a.hedged, b.hedged);
  EXPECT_EQ(a.hedge_won, b.hedge_won);
  EXPECT_EQ(a.restores, b.restores);
  EXPECT_EQ(a.recovery, b.recovery);
  const engines::RunResult& x = a.result;
  const engines::RunResult& y = b.result;
  EXPECT_EQ(x.prompt_tokens, y.prompt_tokens);
  EXPECT_EQ(x.generated_tokens, y.generated_tokens);
  EXPECT_EQ(x.prefill_s, y.prefill_s);
  EXPECT_EQ(x.decode_s, y.decode_s);
  EXPECT_EQ(x.total_s, y.total_s);
  EXPECT_EQ(x.energy.total_j, y.energy.total_j);
  EXPECT_EQ(x.counters.expert_migrations, y.counters.expert_migrations);
  EXPECT_EQ(x.counters.gpu_expert_execs, y.counters.gpu_expert_execs);
  EXPECT_EQ(x.counters.cpu_expert_execs, y.counters.cpu_expert_execs);
  EXPECT_EQ(x.counters.cache_hits, y.counters.cache_hits);
  EXPECT_EQ(x.counters.cache_misses, y.counters.cache_misses);
  EXPECT_EQ(x.counters.migration_retries, y.counters.migration_retries);
  EXPECT_EQ(x.counters.migration_aborts, y.counters.migration_aborts);
  EXPECT_EQ(x.counters.hazard_stall_s, y.counters.hazard_stall_s);
}

void expect_same_stats(const ClusterStats& a, const ClusterStats& b) {
  EXPECT_EQ(a.dispatches, b.dispatches);
  EXPECT_EQ(a.failovers_node_crash, b.failovers_node_crash);
  EXPECT_EQ(a.failovers_dead_dispatch, b.failovers_dead_dispatch);
  EXPECT_EQ(a.replayed_tokens, b.replayed_tokens);
  EXPECT_EQ(a.hedges, b.hedges);
  EXPECT_EQ(a.hedge_wins, b.hedge_wins);
  EXPECT_EQ(a.hedge_cancels, b.hedge_cancels);
  EXPECT_EQ(a.shed_node_lost, b.shed_node_lost);
  EXPECT_EQ(a.shed_deadline, b.shed_deadline);
  EXPECT_EQ(a.shed_degraded, b.shed_degraded);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.ejections, b.ejections);
  EXPECT_EQ(a.readmissions, b.readmissions);
  EXPECT_EQ(a.node_dispatched, b.node_dispatched);
  EXPECT_EQ(a.node_served, b.node_served);
  EXPECT_EQ(a.node_final_state, b.node_final_state);
}

void expect_same_recovery(const RecoveryStats& a, const RecoveryStats& b) {
  EXPECT_EQ(a.checkpoints_written, b.checkpoints_written);
  EXPECT_EQ(a.checkpoint_bytes, b.checkpoint_bytes);
  EXPECT_EQ(a.torn_writes, b.torn_writes);
  EXPECT_EQ(a.corrupt_writes, b.corrupt_writes);
  EXPECT_EQ(a.torn_rejected, b.torn_rejected);
  EXPECT_EQ(a.restores, b.restores);
  EXPECT_EQ(a.restored_tokens, b.restored_tokens);
  EXPECT_EQ(a.fallbacks_no_checkpoint, b.fallbacks_no_checkpoint);
  EXPECT_EQ(a.fallbacks_invalid, b.fallbacks_invalid);
  EXPECT_EQ(a.reconcile_migrations, b.reconcile_migrations);
  EXPECT_EQ(a.reconcile_evictions, b.reconcile_evictions);
  EXPECT_EQ(a.reconcile_refusals, b.reconcile_refusals);
  EXPECT_EQ(a.lost_sessions, b.lost_sessions);
  EXPECT_EQ(a.recovered_restored, b.recovered_restored);
  EXPECT_EQ(a.recovered_replayed, b.recovered_replayed);
  EXPECT_EQ(a.recovered_shed, b.recovered_shed);
  EXPECT_EQ(a.recovery_latency_s, b.recovery_latency_s);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    SCOPED_TRACE("recovery event " + std::to_string(i));
    const RestoreEvent& x = a.events[i];
    const RestoreEvent& y = b.events[i];
    EXPECT_EQ(x.request_id, y.request_id);
    EXPECT_EQ(x.node, y.node);
    EXPECT_EQ(x.restored, y.restored);
    EXPECT_EQ(x.step, y.step);
    EXPECT_EQ(x.loss_time, y.loss_time);
    EXPECT_EQ(x.admit_time, y.admit_time);
    EXPECT_EQ(x.latency_s, y.latency_s);
  }
}

/// Runs `c` traced and untraced and compares every output; returns the
/// untraced run.
ClusterRun expect_windows_match(const Case& c) {
  SCOPED_TRACE(c.name());
  const ClusterRun serial = run_case(c, /*traced=*/true);
  ClusterRun parallel = run_case(c, /*traced=*/false);
  EXPECT_EQ(serial.outcomes.size(), static_cast<std::size_t>(24));
  if (serial.outcomes.size() == parallel.outcomes.size()) {
    for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
      expect_same_outcome(serial.outcomes[i], parallel.outcomes[i]);
    }
  } else {
    ADD_FAILURE() << "outcome counts differ";
  }
  expect_same_stats(serial.stats, parallel.stats);
  expect_same_recovery(serial.recovery, parallel.recovery);
  EXPECT_EQ(serial.health.size(), parallel.health.size());
  for (std::size_t i = 0;
       i < std::min(serial.health.size(), parallel.health.size()); ++i) {
    SCOPED_TRACE("health event " + std::to_string(i));
    EXPECT_EQ(serial.health[i].time, parallel.health[i].time);
    EXPECT_EQ(serial.health[i].node, parallel.health[i].node);
    EXPECT_EQ(serial.health[i].ejected, parallel.health[i].ejected);
    EXPECT_STREQ(serial.health[i].reason, parallel.health[i].reason);
  }
  EXPECT_EQ(serial.tseries_json, parallel.tseries_json);
  EXPECT_EQ(serial.alert_episodes, parallel.alert_episodes);
  for (int i = 0; i < kNodes; ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    const NodeRun& x = serial.nodes[static_cast<std::size_t>(i)];
    const NodeRun& y = parallel.nodes[static_cast<std::size_t>(i)];
    EXPECT_EQ(x.energy_j, y.energy_j);
    EXPECT_EQ(x.hazard_stall_s, y.hazard_stall_s);
    EXPECT_EQ(x.span_s, y.span_s);
  }
  return parallel;
}

TEST(ClusterWindows, ParallelWindowsMatchOneEventWindowsAcrossTheGrid) {
  long long restores = 0;
  long long failovers = 0;
  for (const std::uint64_t seed : {3u, 11u}) {
    for (const bool chaos : {false, true}) {
      for (const bool checkpoint : {false, true}) {
        for (const bool tseries : {false, true}) {
          for (const DispatchPolicy dispatch :
               {DispatchPolicy::kLeastLoaded,
                DispatchPolicy::kExpertAffinity}) {
            Case c;
            c.seed = seed;
            c.chaos = chaos;
            c.checkpoint = checkpoint;
            c.tseries = tseries;
            c.dispatch = dispatch;
            const ClusterRun r = expect_windows_match(c);
            restores += r.recovery.restores;
            failovers += r.stats.failovers_total();
          }
        }
      }
    }
  }
  // The grid reaches the paths the windows treat specially: crash
  // failovers, and warm restores that the caller runs at their turn.
  EXPECT_GT(failovers, 0);
  EXPECT_GT(restores, 0);
}

TEST(ClusterWindows, SlowProbeRoundsCutTheWindows) {
  Case c;
  c.slow_probe_s = 0.5;
  c.tseries = true;
  const ClusterRun r = expect_windows_match(c);
  EXPECT_GT(r.stats.ejections, 0) << "no probe found a node slow";
}

}  // namespace
}  // namespace daop::cluster
