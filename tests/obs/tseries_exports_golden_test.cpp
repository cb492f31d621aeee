// Golden pin of the time-series recorder's full output: the daop-tseries/1
// JSON export and the text report, both with the stock SLO rules evaluated
// and their incidents correlated, for a cluster chaos run (crash, node
// brownouts, torn checkpoints, so the hazard-stall counters see
// non-integer cumulative deltas) and a continuous-batching overload run
// (deadline shedding, preemption, degradation ladder moves). Any change to
// window sealing, series birth, aggregation, alert evaluation or either
// renderer fails this test.
//
// Regenerate (only after an INTENTIONAL recorder or export change) with:
//   DAOP_UPDATE_GOLDENS=1 ./tseries_exports_golden_test
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "../testing/golden.hpp"
#include "../testing/helpers.hpp"
#include "cluster/serving.hpp"
#include "eval/serving.hpp"
#include "obs/alerting.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

#ifndef DAOP_GOLDEN_DIR
#error "DAOP_GOLDEN_DIR must be defined by the build"
#endif

namespace daop::obs {
namespace {

TimeSeriesOptions half_second_windows() {
  TimeSeriesOptions o;
  o.window_s = 0.5;
  return o;
}

/// One golden block: window/event/alert counts (readable on a diff) and
/// the hashes of both exports under the stock rules.
std::string exports_block(const std::string& header,
                          const TimeSeriesRecorder& rec) {
  const AlertReport alerts = evaluate_slo_rules(default_slo_rules(), rec);
  const std::vector<Incident> incidents =
      correlate_incidents(alerts, rec, 2.0 * rec.window_s());
  std::ostringstream os;
  os << "[" << header << "]\n";
  os << "windows=" << rec.n_windows() << " events=" << rec.events().size()
     << " alert_events=" << alerts.events.size()
     << " episodes=" << alerts.episodes.size()
     << " incidents=" << incidents.size() << "\n";
  os << "json_fnv1a="
     << daop::testing::fnv1a_hex(to_tseries_json(rec, alerts, incidents))
     << "\n";
  os << "text_fnv1a="
     << daop::testing::fnv1a_hex(to_tseries_text(rec, alerts, incidents))
     << "\n";
  return os.str();
}

cluster::ClusterServingOptions cluster_chaos_options() {
  cluster::ClusterServingOptions opt;
  opt.n_nodes = 4;
  opt.base.arrival_rate_rps = 3.0;
  opt.base.n_requests = 32;
  opt.base.min_prompt = 16;
  opt.base.max_prompt = 32;
  opt.base.min_gen = 16;
  opt.base.max_gen = 32;
  opt.base.calibration_seqs = 4;
  opt.base.seed = 13;
  opt.cluster.max_concurrent_per_node = 2;
  opt.cluster.dispatch = cluster::DispatchPolicy::kLeastLoaded;
  opt.cluster.health.enabled = true;
  opt.cluster.health.probe_interval_s = 0.5;
  opt.cluster.failover_budget = 1;
  opt.cluster.service_estimate_s = 0.3;
  opt.cluster.deadline_s = 3.0;
  opt.cluster.checkpoint.every_steps = 4;
  opt.cluster.crash_node = 1;
  opt.cluster.crash_time_s = 3.0;
  opt.node_hazards.node_brownout_prob = 1.0;
  opt.node_hazards.node_brownout_min_start_s = 1.0;
  opt.node_hazards.node_brownout_max_start_s = 4.0;
  opt.node_hazards.node_brownout_duration_s = 3.0;
  opt.node_hazards.node_brownout_slowdown = 2.5;
  opt.node_hazards.ckpt_torn_write_prob = 0.25;
  return opt;
}

TimeSeriesRecorder cluster_recorder() {
  return TimeSeriesRecorder(half_second_windows(),
                            {"node0", "node1", "node2", "node3", "cluster"});
}

cluster::ClusterServingResult run_cluster(
    const cluster::ClusterServingOptions& opt) {
  return cluster::run_cluster_serving_eval(
      eval::EngineKind::Daop, daop::testing::small_mixtral(),
      sim::a6000_i9_platform(), data::sharegpt_calibration(), opt);
}

std::string cluster_chaos_block() {
  cluster::ClusterServingOptions opt = cluster_chaos_options();
  TimeSeriesRecorder rec = cluster_recorder();
  opt.base.tseries = &rec;
  const cluster::ClusterServingResult r = run_cluster(opt);
  EXPECT_EQ(r.cluster.crashes, 1);
  EXPECT_GT(r.recovery.checkpoints_written, 0);
  EXPECT_GT(r.counters.hazard_stall_s, 0.0);
  return exports_block(
      "DAOP cluster | 4 nodes, crash, brownouts, torn checkpoints | seed 13",
      rec);
}

eval::ServingOptions cb_overload_options() {
  eval::ServingOptions opt;
  opt.arrival_rate_rps = 6.0;
  opt.n_requests = 24;
  opt.min_prompt = 16;
  opt.max_prompt = 32;
  opt.min_gen = 12;
  opt.max_gen = 24;
  opt.calibration_seqs = 4;
  opt.seed = 99;
  opt.max_concurrent = 4;
  opt.overload.admission = eval::AdmissionPolicy::kDeadlineEdf;
  opt.overload.preempt = true;
  opt.overload.queue_capacity = 8;
  opt.overload.deadline_s = 2.0;
  opt.overload.service_estimate_s = 0.3;
  opt.priority_every = 3;
  opt.priority_deadline_s = 0.8;
  opt.overload.degrade.enabled = true;
  opt.overload.degrade.window_s = 1.0;
  opt.overload.degrade.min_dwell_s = 0.2;
  opt.overload.degrade.calm_window_s = 0.5;
  opt.hazards = sim::make_hazard_scenario("all", 0.8);
  return opt;
}

eval::ServingResult run_cb(const eval::ServingOptions& opt) {
  return eval::run_serving_eval(
      eval::EngineKind::Daop, daop::testing::small_mixtral(),
      sim::a6000_i9_platform(), data::sharegpt_calibration(), opt);
}

std::string cb_overload_block() {
  eval::ServingOptions opt = cb_overload_options();
  TimeSeriesRecorder rec(half_second_windows(), {"serving"});
  opt.tseries = &rec;
  const eval::ServingResult r = run_cb(opt);
  EXPECT_GT(r.preemptions, 0);
  EXPECT_GT(r.degrade_steps_down, 0);
  EXPECT_GT(r.shed, 0);
  return exports_block(
      "DAOP CB | deadline-edf + preempt + degrade + hazards | seed 99", rec);
}

TEST(TseriesExportsGolden, AlertedExportsMatchGolden) {
  const std::string actual = cluster_chaos_block() + "\n" + cb_overload_block();
  daop::testing::expect_matches_golden(
      DAOP_GOLDEN_DIR "/tseries_exports.golden", actual);
}

/// Checks that every family the recorder's windows carry and the run's
/// metrics registry also exports has the registry's help text; returns the
/// families it compared. (The tseries exports carry no help, so a drift
/// shows nowhere else.)
std::set<std::string> expect_registry_help(const TimeSeriesRecorder& rec,
                                           const MetricsRegistry& reg) {
  const MetricsSnapshot snap = reg.snapshot();
  std::set<std::string> compared;
  for (int ch = 0; ch < rec.n_channels(); ++ch) {
    for (const SeriesWindow& w : rec.windows(ch)) {
      for (const auto& [name, family] : w.delta.families) {
        const auto it = snap.families.find(name);
        if (it == snap.families.end() || compared.count(name) != 0) continue;
        EXPECT_EQ(family.help, it->second.help)
            << name << " on channel " << rec.channel_name(ch);
        compared.insert(name);
      }
    }
  }
  return compared;
}

TEST(TseriesExportsGolden, RecordedFamiliesCarryTheRegistryHelp) {
  {
    SCOPED_TRACE("cluster chaos");
    cluster::ClusterServingOptions opt = cluster_chaos_options();
    TimeSeriesRecorder rec = cluster_recorder();
    MetricsRegistry reg;
    opt.base.tseries = &rec;
    opt.base.metrics = &reg;
    (void)run_cluster(opt);
    EXPECT_EQ(expect_registry_help(rec, reg).count(
                  "daop_hazard_stall_seconds_total"),
              1U);
  }
  {
    SCOPED_TRACE("CB overload");
    eval::ServingOptions opt = cb_overload_options();
    TimeSeriesRecorder rec(half_second_windows(), {"serving"});
    MetricsRegistry reg;
    opt.tseries = &rec;
    opt.metrics = &reg;
    (void)run_cb(opt);
    const std::set<std::string> compared = expect_registry_help(rec, reg);
    EXPECT_EQ(compared.count("daop_hazard_stall_seconds_total"), 1U);
    EXPECT_EQ(compared.count("daop_session_preemptions_total"), 1U);
  }
}

}  // namespace
}  // namespace daop::obs
