// Differential regression for the serving harnesses: run_serving_eval and
// run_cluster_serving_eval must produce bit-identical output — request
// times, outcomes, counters, the Prometheus metrics text, the exported
// request-span trace bytes and the daop-tseries/1 export — versus the
// committed golden snapshots. The cases cover the sequential server, the
// continuous-batching scheduler with default options, client timeouts and
// retries, a dynamic expert cache, the overload plane (deadline-edf,
// preemption, priority traffic, a bounded queue, degradation under hazards)
// and a 3-node cluster with a crash, health checks and deadline shedding.
// Any scheduling-order or metric-emission change — however
// plausible-looking — fails this test.
//
// Regenerate (only after an INTENTIONAL serving-behaviour change) with:
//   DAOP_UPDATE_GOLDENS=1 ./serving_golden_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "../testing/helpers.hpp"
#include "cluster/serving.hpp"
#include "eval/serving.hpp"
#include "obs/alerting.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "obs/timeseries.hpp"
#include "sim/trace_export.hpp"

#ifndef DAOP_GOLDEN_DIR
#error "DAOP_GOLDEN_DIR must be defined by the build"
#endif

namespace daop::eval {
namespace {

/// Hexfloat rendering: two doubles render identically iff they are
/// bit-identical (modulo -0.0/NaN, which serving never produces here).
std::string hexf(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hash_str(const std::string& s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a(s)));
  return buf;
}

/// daop-tseries/1 export of a finalized recorder (no alert rules), hashed.
std::string tseries_hash(const obs::TimeSeriesRecorder& rec) {
  return hash_str(obs::to_tseries_json(rec, obs::AlertReport{}, {}));
}

obs::TimeSeriesOptions tseries_window() {
  obs::TimeSeriesOptions o;
  o.window_s = 0.5;
  return o;
}

std::string counters_line(const engines::EngineCounters& c) {
  std::ostringstream os;
  os << "counters=" << c.expert_migrations << "," << c.gpu_expert_execs << ","
     << c.cpu_expert_execs << "," << c.cache_hits << "," << c.cache_misses
     << "," << c.prefetch_hits << "," << c.predictions << ","
     << c.mispredictions << "," << c.degradations << "," << c.prefill_swaps
     << "," << c.decode_swaps << "," << c.skipped_experts << ","
     << c.migration_retries << "," << c.migration_aborts << ","
     << c.stale_precalcs << "," << c.pin_refusals << ","
     << hexf(c.hazard_stall_s) << "\n";
  return os.str();
}

/// One "id:outcome/retries/preempted/restores/recovery" entry per request.
std::string outcomes_line(
    const std::vector<ServingResult::RequestLogEntry>& log) {
  std::ostringstream os;
  os << "outcomes=";
  for (const auto& e : log) {
    os << e.id << ":" << e.outcome << "/" << e.retries << "/" << e.preempted
       << "/" << e.restores << "/" << e.recovery << " ";
  }
  os << "\n";
  return os.str();
}

ServingOptions base_options(int max_concurrent, std::uint64_t seed) {
  ServingOptions opt;
  opt.arrival_rate_rps = 1.0;
  opt.n_requests = 8;
  opt.min_prompt = 16;
  opt.max_prompt = 32;
  opt.min_gen = 12;
  opt.max_gen = 24;
  opt.calibration_seqs = 4;
  opt.seed = seed;
  opt.max_concurrent = max_concurrent;
  return opt;
}

/// `tag` names a non-default case in the block header ("" for the four
/// default-option runs, whose headers predate the tagged cases).
std::string serving_snapshot(EngineKind kind, ServingOptions opt,
                             const std::string& tag) {
  obs::MetricsRegistry reg;
  opt.metrics = &reg;
  obs::SpanTracer tracer;
  opt.tracer = &tracer;
  obs::TimeSeriesRecorder rec(tseries_window(), {"serving"});
  opt.tseries = &rec;

  const ServingResult r = run_serving_eval(
      kind, daop::testing::small_mixtral(), sim::a6000_i9_platform(),
      data::sharegpt_calibration(), opt);

  std::ostringstream os;
  os << "[" << engine_kind_name(kind) << " | max_concurrent "
     << opt.max_concurrent << " | seed " << opt.seed;
  if (!tag.empty()) os << " | " << tag;
  os << "]\n";
  os << "served=" << r.served << " dropped=" << r.dropped
     << " retries=" << r.request_retries << "\n";
  os << "ttft=" << hexf(r.ttft_s.mean) << " " << hexf(r.ttft_s.p99) << "\n";
  os << "latency=" << hexf(r.latency_s.mean) << " " << hexf(r.latency_s.p99)
     << "\n";
  os << "queue_wait=" << hexf(r.queue_wait_s.mean) << "\n";
  os << "tpot=" << hexf(r.tpot_s.mean) << "\n";
  os << "throughput=" << hexf(r.throughput_tps) << "\n";
  os << "makespan=" << hexf(r.makespan_s) << "\n";
  os << "busy=" << hexf(r.busy_fraction) << "\n";
  os << counters_line(r.counters);
  // The serving trace has no recorded timeline; the export is exactly what
  // `daop_cli serve --out-json` writes (tracer tracks only).
  const sim::Timeline no_timeline;
  os << "trace_fnv1a="
     << hash_str(sim::to_chrome_trace_json(no_timeline, &tracer)) << "\n";
  os << "metrics_fnv1a=" << hash_str(reg.to_prometheus()) << "\n";
  os << "overload=" << r.shed << "," << r.shed_queue_full << ","
     << r.shed_deadline << "," << r.shed_degraded << "," << r.preemptions
     << "," << r.degrade_steps_down << "," << r.degrade_steps_up << ","
     << r.degrade_peak_level << "," << r.degrade_final_level << " slo="
     << r.slo_violations << "\n";
  os << "cache=" << r.cache_fills << "," << r.cache_evictions << ","
     << r.cache_refusals << "," << r.cache_aborts << ","
     << hexf(r.cache_bytes_moved) << "\n";
  os << outcomes_line(r.request_log);
  os << "tseries_fnv1a=" << tseries_hash(rec) << "\n";
  return os.str();
}

std::string cluster_snapshot(EngineKind kind) {
  cluster::ClusterServingOptions opt;
  opt.n_nodes = 3;
  opt.base = base_options(1, 7);
  opt.base.arrival_rate_rps = 6.0;
  opt.base.n_requests = 24;
  opt.base.min_gen = 16;
  opt.base.max_gen = 32;
  opt.base.priority_every = 4;
  opt.base.priority_deadline_s = 0.8;
  opt.cluster.max_concurrent_per_node = 2;
  opt.cluster.dispatch = cluster::DispatchPolicy::kLeastLoaded;
  opt.cluster.health.enabled = true;
  opt.cluster.health.probe_interval_s = 0.5;
  opt.cluster.failover_budget = 1;
  opt.cluster.service_estimate_s = 0.3;
  opt.cluster.deadline_s = 2.0;
  opt.cluster.degrade.enabled = true;
  opt.cluster.degrade.window_s = 1.0;
  opt.cluster.degrade.min_dwell_s = 0.2;
  opt.cluster.degrade.calm_window_s = 0.5;
  opt.node_hazards = sim::make_hazard_scenario("all", 0.8);
  opt.cluster.crash_node = 1;
  opt.cluster.crash_time_s = 3.0;
  obs::MetricsRegistry reg;
  opt.base.metrics = &reg;
  obs::SpanTracer tracer;
  opt.base.tracer = &tracer;
  obs::TimeSeriesRecorder rec(tseries_window(),
                              {"node0", "node1", "node2", "cluster"});
  opt.base.tseries = &rec;

  const cluster::ClusterServingResult r = cluster::run_cluster_serving_eval(
      kind, daop::testing::small_mixtral(), sim::a6000_i9_platform(),
      data::sharegpt_calibration(), opt);

  std::ostringstream os;
  os << "[" << r.engine << " | crash node 1 + health + deadline + degrade | seed "
     << opt.base.seed << "]\n";
  os << "served=" << r.served << " shed=" << r.shed << " node_lost="
     << r.shed_node_lost << " deadline=" << r.shed_deadline
     << " degraded=" << r.shed_degraded << " slo=" << r.slo_violations
     << "\n";
  os << "ttft=" << hexf(r.ttft_s.mean) << " " << hexf(r.ttft_s.p99) << "\n";
  os << "latency=" << hexf(r.latency_s.mean) << " " << hexf(r.latency_s.p99)
     << "\n";
  os << "queue_wait=" << hexf(r.queue_wait_s.mean) << "\n";
  os << "tpot=" << hexf(r.tpot_s.mean) << "\n";
  os << "throughput=" << hexf(r.throughput_tps) << "\n";
  os << "makespan=" << hexf(r.makespan_s) << "\n";
  os << counters_line(r.counters);
  const cluster::ClusterStats& cs = r.cluster;
  os << "cluster=" << cs.dispatches << "," << cs.failovers_node_crash << ","
     << cs.failovers_dead_dispatch << "," << cs.replayed_tokens << ","
     << cs.hedges << "," << cs.crashes << "," << cs.ejections << ","
     << cs.readmissions << " health_events=" << r.health_events.size()
     << "\n";
  os << outcomes_line(r.request_log);
  const sim::Timeline no_timeline;
  os << "trace_fnv1a="
     << hash_str(sim::to_chrome_trace_json(no_timeline, &tracer)) << "\n";
  os << "metrics_fnv1a=" << hash_str(reg.to_prometheus()) << "\n";
  os << "tseries_fnv1a=" << tseries_hash(rec) << "\n";
  return os.str();
}

std::string all_snapshots() {
  std::string out;
  for (const EngineKind kind : {EngineKind::Daop, EngineKind::Fiddler}) {
    for (const int mc : {1, 4}) {
      out += serving_snapshot(kind, base_options(mc, 99), "");
      out += "\n";
    }
  }
  for (const EngineKind kind : {EngineKind::Daop, EngineKind::Fiddler}) {
    ServingOptions timeout = base_options(4, 99);
    timeout.arrival_rate_rps = 4.0;
    timeout.request_timeout_s = 0.4;
    timeout.max_request_retries = 1;
    timeout.retry_backoff_s = 0.2;
    out += serving_snapshot(kind, timeout, "timeout+retries");
    out += "\n";

    ServingOptions lfu = base_options(4, 99);
    lfu.arrival_rate_rps = 2.0;
    lfu.cache.policy = cache::CachePolicy::kLfu;
    out += serving_snapshot(kind, lfu, "lfu cache");
    out += "\n";

    ServingOptions ov = base_options(4, 99);
    ov.arrival_rate_rps = 6.0;
    ov.n_requests = 16;
    ov.overload.admission = AdmissionPolicy::kDeadlineEdf;
    ov.overload.preempt = true;
    ov.overload.queue_capacity = 8;
    ov.overload.deadline_s = 2.0;
    ov.overload.service_estimate_s = 0.3;
    ov.priority_every = 3;
    ov.priority_deadline_s = 0.8;
    ov.overload.degrade.enabled = true;
    ov.overload.degrade.window_s = 1.0;
    ov.overload.degrade.min_dwell_s = 0.2;
    ov.overload.degrade.calm_window_s = 0.5;
    ov.hazards = sim::make_hazard_scenario("all", 0.8);
    out += serving_snapshot(kind, ov, "deadline-edf+preempt+degrade");
    out += "\n";
  }
  out += cluster_snapshot(EngineKind::Daop);
  return out;
}

const char* kGoldenPath = DAOP_GOLDEN_DIR "/serving_runs.golden";

TEST(ServingGolden, DefaultOptionsMatchPreOverloadGoldens) {
  const std::string actual = all_snapshots();
  if (std::getenv("DAOP_UPDATE_GOLDENS") != nullptr) {
    std::ofstream f(kGoldenPath);
    ASSERT_TRUE(f.good()) << "cannot write " << kGoldenPath;
    f << actual;
    GTEST_SKIP() << "goldens regenerated at " << kGoldenPath;
  }
  std::ifstream f(kGoldenPath);
  ASSERT_TRUE(f.good()) << "missing golden file " << kGoldenPath
                        << " (regenerate with DAOP_UPDATE_GOLDENS=1)";
  std::ostringstream expected;
  expected << f.rdbuf();
  // Compare block by block so a failure names the first diverging run.
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

}  // namespace
}  // namespace daop::eval
