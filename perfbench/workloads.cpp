#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <tuple>

#include "cluster/router.hpp"
#include "engines/run_metrics.hpp"
#include "eval/continuous_batching.hpp"
#include "eval/speed.hpp"
#include "metrics.hpp"
#include "obs/alerting.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "sim/energy.hpp"

namespace perfbench {

namespace {

constexpr eval::EngineKind kDaop = eval::EngineKind::Daop;

double ratio(long long num, long long den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// Engine/core counter metrics, per generated token.
void counter_layer(const engines::EngineCounters& c, long long gen_tokens,
                   MetricValues& layer) {
  layer.set("engines.gpu_hit_rate",
            ratio(c.cache_hits, c.cache_hits + c.cache_misses));
  layer.set("engines.cpu_execs_per_tok",
            per_token(static_cast<double>(c.cpu_expert_execs), gen_tokens));
  layer.set("engines.migrations_per_tok",
            per_token(static_cast<double>(c.expert_migrations), gen_tokens));
  layer.set("core.predict_accuracy",
            c.predictions > 0 ? 1.0 - ratio(c.mispredictions, c.predictions)
                              : 0.0);
  layer.set("core.stale_precalc_ratio", ratio(c.stale_precalcs, c.predictions));
  layer.set("core.degradations_per_tok",
            per_token(static_cast<double>(c.degradations), gen_tokens));
}

/// A served request as its client saw it: TTFT counts from the original
/// arrival, so `wait_s` is admission minus arrival.
RequestOutcome served_outcome(double wait_s, const engines::RunResult& r) {
  return {true, wait_s + r.prefill_s,
          r.decode_s / static_cast<double>(r.generated_tokens)};
}

/// Client-facing end-to-end metrics shared by all workloads.
void serving_e2e(const std::vector<RequestOutcome>& outcomes,
                 long long gen_tokens, double duration_s, double energy_j,
                 MetricValues& e2e, Checks& checks) {
  std::vector<double> ttft;
  std::vector<double> tpot;
  for (const RequestOutcome& o : outcomes) {
    if (!o.served) continue;
    ttft.push_back(o.ttft_s);
    tpot.push_back(o.tpot_s);
  }
  const auto put_pct = [&](const char* name, const std::vector<double>& v,
                           double p) {
    const std::optional<double> x = supported_percentile(v, p);
    checks.expect(x.has_value(),
                  std::string(name) + " needs " +
                      std::to_string(kMinSamplesBeyond) +
                      " served samples beyond it, have " +
                      std::to_string(samples_beyond(v.size(), p)));
    e2e.set(name, x.value_or(0.0));
  };
  e2e.set("tok_per_s", static_cast<double>(gen_tokens) / duration_s);
  e2e.set("tokens_per_kj", static_cast<double>(gen_tokens) / (energy_j / 1e3));
  put_pct("ttft_p50_s", ttft, 0.50);
  put_pct("ttft_p90_s", ttft, 0.90);
  put_pct("tpot_p50_s", tpot, 0.50);
  put_pct("tpot_p90_s", tpot, 0.90);
  const Limits limits{traffic::kTtftLimitS, traffic::kTpotLimitS};
  e2e.set("goodput_rps", goodput_rps(outcomes, limits, duration_s));
  e2e.set("served_frac", 1.0 - fail_frac(outcomes));
}

/// Attribution of recorded timeline windows, summed.
struct AttrSum {
  obs::AttrBreakdown total;
  double wall_s = 0.0;  ///< time spent inside attribute_window()
  void add(const sim::Timeline& tl, double t1) {
    const Clock::time_point t0 = Clock::now();
    total.add(obs::attribute_window(tl.intervals(), tl.hazard_intervals(), 0.0,
                                    std::max(t1, tl.span())));
    wall_s += seconds_since(t0);
  }
  void emit(long long gen_tokens, MetricValues& layer,
            MetricValues& wall) const {
    for (int i = 0; i < obs::kNumAttrCategories; ++i) {
      const auto c = static_cast<obs::AttrCategory>(i);
      const std::string base =
          std::string("attr.") + obs::attr_category_name(c);
      layer.set(base + ".exposed_ms_per_tok",
                per_token(total.exposed(c), gen_tokens, 1e3));
      layer.set(base + ".hidden_ms_per_tok",
                per_token(total.hidden(c), gen_tokens, 1e3));
    }
    layer.set("attr.idle_ms_per_tok", per_token(total.idle_s, gen_tokens, 1e3));
    wall.set("obs.attribution_ms", wall_s * 1e3);
  }
};

double timed_prom_export_ms(const obs::MetricsRegistry& reg) {
  const Clock::time_point t0 = Clock::now();
  const std::string text = reg.to_prometheus();
  const double ms = seconds_since(t0) * 1e3;
  if (text.empty()) throw std::runtime_error("empty prometheus export");
  return ms;
}

/// Records served-request latencies the way the serving harnesses do.
void record_outcomes(obs::MetricsRegistry& reg,
                     const std::vector<RequestOutcome>& outcomes) {
  const std::vector<double> buckets = obs::default_latency_buckets();
  auto& ttft = reg.histogram("daop_serving_ttft_seconds",
                             "Arrival to first output token.", buckets);
  auto& tpot = reg.histogram("daop_serving_tpot_seconds",
                             "Mean time per output token per request.",
                             buckets);
  auto& served = reg.counter("daop_serving_requests_total",
                             "Requests by final outcome.",
                             {{"outcome", "served"}});
  auto& shed = reg.counter("daop_serving_requests_total",
                           "Requests by final outcome.", {{"outcome", "shed"}});
  for (const RequestOutcome& o : outcomes) {
    if (o.served) {
      ttft.observe(o.ttft_s);
      tpot.observe(o.tpot_s);
      served.inc();
    } else {
      shed.inc();
    }
  }
}

std::vector<const data::SequenceTrace*> plan_traces(
    const std::vector<PlannedRequest>& plan) {
  std::vector<const data::SequenceTrace*> out;
  out.reserve(plan.size());
  for (const PlannedRequest& r : plan) out.push_back(&r.trace);
  return out;
}

// ---------------------------------------------------------------------------
// paper-decode: Fig. 9 / Table IV point, closed loop at batch 1.

class PaperDecode final : public Workload {
 public:
  const char* name() const override { return "paper-decode"; }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    placement_ = calibrate(seed);
    eval::SpeedEvalOptions o;
    o.seed = seed;
    o.n_seqs = traffic::kDecodeSeqs;
    o.prompt_len = traffic::kDecodePrompt;
    o.gen_len = traffic::kDecodeGen;
    traces_ = eval::generate_eval_traces(sys().model, sys().dataset, o);
  }

  std::vector<const data::SequenceTrace*> traces() const override {
    std::vector<const data::SequenceTrace*> out;
    for (const auto& t : traces_) out.push_back(&t);
    return out;
  }

  ExecReport execute(const ExecOptions& opt, Checks& checks) override {
    return run(kDaop, opt, checks);
  }

  void check_once(const ExecReport& daop, Checks& checks) override {
    const ExecReport fiddler = run(eval::EngineKind::Fiddler, {}, checks);
    const double d = daop.e2e.at("tok_per_s");
    const double f = fiddler.e2e.at("tok_per_s");
    std::fprintf(stderr,
                 "paper-decode: DAOP %.4f tok/s vs Fiddler %.4f (+%.1f%%)\n",
                 d, f, 100.0 * (d / f - 1.0));
    checks.expect(d > f, "DAOP tok_per_s exceeds Fiddler's");
  }

  void layer_probes(const ExecReport&, double, double, MetricValues& out,
                    Checks&) override {
    const auto& cat = per_layer_metrics();
    for (const char* n : {"cache.fills_per_ktok", "cache.refusals_per_ktok",
                          "cache.aborts", "recovery.checkpoints_per_ktok",
                          "recovery.restore_ratio", "recovery.restored_tokens",
                          "recovery.torn_rejected", "obs.sink_overhead_frac",
                          "obs.tseries_export_ms", "obs.alert_episodes"}) {
      out.set(n, 0.0);
    }
    out.zero_layer(cat, "eval.");
    out.zero_layer(cat, "cluster.");
  }

 private:
  ExecReport run(eval::EngineKind kind, const ExecOptions& opt,
                 Checks& checks) {
    auto engine = eval::make_engine(kind, sys().costs);
    ExecReport rep;
    std::vector<RequestOutcome> outcomes;
    engines::EngineCounters counters;
    double busy_s = 0.0;
    double energy_j = 0.0;
    obs::MetricsRegistry reg;
    AttrSum attr;
    long long ops = 0;
    for (std::size_t i = 0; i < traces_.size(); ++i) {
      const data::SequenceTrace& t = traces_[i];
      engines::RunResult r;
      if (opt.traced) {
        sim::Timeline tl;
        tl.set_record_intervals(true);
        r = engine->run(t, placement_, &tl, static_cast<long long>(i));
        ops += static_cast<long long>(tl.interval_count());
        attr.add(tl, r.total_s);
        engines::record_run_metrics(reg, r);
      } else {
        r = engine->run(t, placement_, nullptr, static_cast<long long>(i));
      }
      // Closed loop: each sequence starts when the previous one ends, so
      // its first token is its prefill and the loop's clock is the sum.
      outcomes.push_back(served_outcome(0.0, r));
      busy_s += r.total_s;
      energy_j += r.energy.total_j;
      rep.generated_tokens += r.generated_tokens;
      rep.processed_tokens += r.prompt_tokens + r.generated_tokens;
      counters.add(r.counters);
    }
    rep.attempted = static_cast<long long>(traces_.size());
    serving_e2e(outcomes, rep.generated_tokens, busy_s, energy_j, rep.e2e,
                checks);
    counter_layer(counters, rep.generated_tokens, rep.layer);
    if (opt.traced) {
      attr.emit(rep.generated_tokens, rep.layer, rep.wall);
      rep.layer.set("sim.ops_per_tok", per_token(static_cast<double>(ops),
                                                 rep.processed_tokens));
      rep.wall.set("obs.prom_export_ms", timed_prom_export_ms(reg));
    }
    return rep;
  }

  std::vector<data::SequenceTrace> traces_;
};

// ---------------------------------------------------------------------------
// serve-overload: one continuous-batching node under 2x open-loop overload.

class ServeOverload final : public Workload {
 public:
  const char* name() const override { return "serve-overload"; }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    placement_ = calibrate(seed);
    plan_ = make_plan(seed, traffic::kOverloadRequests, traffic::kOverloadRps,
                      traffic::kPriorityEvery, traffic::kPriorityDeadlineS);
  }

  std::vector<const data::SequenceTrace*> traces() const override {
    return plan_traces(plan_);
  }

  void prepare() override {
    pending_.clear();
    for (const PlannedRequest& p : plan_) {
      pending_.push_back({p.id, p.arrival, p.deadline_s, p.trace});
    }
  }

  static eval::ContinuousBatchingScheduler::Options scheduler_options() {
    eval::ContinuousBatchingScheduler::Options o;
    o.max_concurrent = traffic::kSlotsPerNode;
    o.overload.admission = eval::AdmissionPolicy::kDeadlineEdf;
    o.overload.queue_capacity = traffic::kOverloadQueueCap;
    o.overload.deadline_s = traffic::kTtftLimitS;
    o.overload.service_estimate_s = traffic::kServiceEstimateS;
    o.overload.preempt = true;
    o.cache.policy = cache::CachePolicy::kLfu;
    return o;
  }

  ExecReport execute(const ExecOptions& opt, Checks& checks) override {
    sim::Timeline tl;
    tl.set_record_intervals(opt.traced);
    auto engine = eval::make_engine(kDaop, sys().costs);
    eval::ContinuousBatchingScheduler sched(*engine, tl, placement_,
                                            scheduler_options());
    for (auto& r : pending_) sched.enqueue(std::move(r));
    pending_.clear();
    const auto outs = sched.run();

    ExecReport rep;
    rep.attempted = static_cast<long long>(outs.size());
    std::vector<RequestOutcome> outcomes;
    std::vector<double> waits;
    engines::EngineCounters counters;
    double makespan = 0.0;
    double slot_s = 0.0;
    long long served = 0, shed = 0, dropped = 0;
    for (const auto& o : outs) {
      if (o.shed) {
        ++shed;
      } else if (!o.served) {
        ++dropped;
      }
      if (!o.served) {
        outcomes.push_back({});
        continue;
      }
      ++served;
      const engines::RunResult& r = o.result;
      outcomes.push_back(served_outcome(o.start - o.arrival, r));
      waits.push_back(o.start - o.arrival);
      makespan = std::max(makespan, o.end);
      slot_s += o.end - o.start;
      rep.generated_tokens += r.generated_tokens;
      rep.processed_tokens += r.prompt_tokens + r.generated_tokens;
      counters.add(r.counters);
    }
    checks.expect(served + shed + dropped == rep.attempted,
                  "serve-overload: served + shed + dropped == attempted");
    checks.expect(sched.arbiter().total_pin_count() == 0,
                  "serve-overload: zero arbiter pins after the run");
    const double horizon = std::max(makespan, tl.span());
    const double energy_j =
        sim::compute_energy(sys().platform, tl, horizon).total_j;
    serving_e2e(outcomes, rep.generated_tokens, makespan, energy_j, rep.e2e,
                checks);
    counter_layer(counters, rep.generated_tokens, rep.layer);

    const cache::ExpertCache* ec = sched.expert_cache();
    if (ec == nullptr) throw std::logic_error("lfu cache not constructed");
    const auto refusals = static_cast<long long>(ec->refusals().size());
    rep.layer.set("cache.fills_per_ktok",
                  per_ktok(ec->fills(), rep.generated_tokens));
    rep.layer.set("cache.refusals_per_ktok",
                  per_ktok(refusals, rep.generated_tokens));
    rep.layer.set("cache.aborts", static_cast<double>(ec->aborts()));
    const eval::OverloadStats& ov = sched.overload_stats();
    rep.layer.set("eval.queue_wait_p50_s", percentile(waits, 0.5));
    rep.layer.set("eval.occupancy",
                  slot_s / (makespan * traffic::kSlotsPerNode));
    rep.layer.set("eval.shed_deadline",
                  static_cast<double>(ov.shed_by_reason[static_cast<int>(
                      eval::ShedReason::kDeadline)]));
    rep.layer.set("eval.shed_queue_full",
                  static_cast<double>(ov.shed_by_reason[static_cast<int>(
                      eval::ShedReason::kQueueFull)]));
    rep.layer.set("eval.preemptions", static_cast<double>(ov.preemptions));

    if (opt.traced) {
      AttrSum attr;
      attr.add(tl, horizon);
      attr.emit(rep.generated_tokens, rep.layer, rep.wall);
      rep.layer.set("sim.ops_per_tok",
                    per_token(static_cast<double>(tl.interval_count()),
                              rep.processed_tokens));
      obs::MetricsRegistry reg;
      record_outcomes(reg, outcomes);
      engines::record_counter_metrics(reg, counters, {});
      rep.wall.set("obs.prom_export_ms", timed_prom_export_ms(reg));
    }
    return rep;
  }

  void layer_probes(const ExecReport& rep, double untraced_wall_s,
                    double bare_us_per_tok, MetricValues& out,
                    Checks&) override {
    const auto& cat = per_layer_metrics();
    const double cb = per_token(untraced_wall_s, rep.processed_tokens, 1e6);
    out.set("eval.cb_run_us_per_tok", cb);
    out.set("eval.cb_overhead_us_per_tok", cb - bare_us_per_tok);
    for (const char* n : {"recovery.checkpoints_per_ktok",
                          "recovery.restore_ratio", "recovery.restored_tokens",
                          "recovery.torn_rejected", "obs.sink_overhead_frac",
                          "obs.tseries_export_ms", "obs.alert_episodes"}) {
      out.set(n, 0.0);
    }
    out.zero_layer(cat, "cluster.");
  }

 private:
  std::vector<PlannedRequest> plan_;
  std::vector<eval::ContinuousBatchingScheduler::Request> pending_;
};

// ---------------------------------------------------------------------------
// cluster-chaos: 4 nodes, node 1 crashes mid-run, brownouts, checkpointing.

class ClusterChaos final : public Workload {
 public:
  const char* name() const override { return "cluster-chaos"; }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    placement_ = calibrate(seed);
    plan_ = make_plan(seed, traffic::kClusterRequests, traffic::kClusterRps, 0,
                      0.0);
    for (int i = traffic::kBurstAt; i < traffic::kBurstAt + traffic::kBurstSize;
         ++i) {
      plan_[i].arrival = plan_[traffic::kBurstAt].arrival;
    }
  }

  std::vector<const data::SequenceTrace*> traces() const override {
    return plan_traces(plan_);
  }

  void prepare() override {
    pending_.clear();
    for (const PlannedRequest& p : plan_) {
      pending_.push_back({p.id, p.arrival, p.deadline_s, p.trace});
    }
  }

  double crash_time() const {
    return plan_[traffic::kBurstAt].arrival + traffic::kCrashDelayS;
  }

  void check_once(const ExecReport& rep, Checks&) override {
    const MetricValues& l = rep.layer;
    std::fprintf(stderr,
                 "cluster-chaos: crash at %.1f s detected after %.2f s, %g "
                 "failovers, restore ratio %.3g, %g torn snapshots rejected, "
                 "%g alert episodes\n",
                 crash_time(), l.at("cluster.detect_s"),
                 l.at("cluster.failovers"), l.at("recovery.restore_ratio"),
                 l.at("recovery.torn_rejected"), l.at("obs.alert_episodes"));
  }

  static sim::HazardScenario node_hazards() {
    const double span = traffic::kClusterRequests / traffic::kClusterRps;
    sim::HazardScenario h;
    h.node_brownout_prob = 1.0;
    h.node_brownout_min_start_s = 0.05 * span;
    h.node_brownout_max_start_s = 0.3 * span;
    h.node_brownout_duration_s = traffic::kBrownoutDurationS;
    h.node_brownout_slowdown = traffic::kBrownoutSlowdown;
    h.ckpt_torn_write_prob = traffic::kTornWriteProb;
    return h;
  }

  ExecReport execute(const ExecOptions& opt, Checks& checks) override {
    const sim::HazardScenario hazards = node_hazards();
    std::vector<cluster::ClusterRouter::NodeSeat> seats;
    for (int i = 0; i < traffic::kClusterNodes; ++i) {
      cluster::ClusterRouter::NodeSeat seat;
      seat.engine = eval::make_engine(kDaop, sys().costs);
      // Same per-node fault stream derivation as cluster/serving.cpp.
      const std::uint64_t node_seed =
          seed_ ^ 0xC105731ULL ^
          (static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ULL);
      seat.fault = std::make_unique<sim::FaultModel>(hazards, node_seed);
      seat.initial = placement_;
      seats.push_back(std::move(seat));
    }
    std::vector<std::string> channels;
    for (int i = 0; i < traffic::kClusterNodes; ++i) {
      channels.push_back("node" + std::to_string(i));
    }
    channels.push_back("cluster");
    obs::TimeSeriesOptions ts_opt;
    ts_opt.window_s = opt.sinks ? traffic::kTseriesWindowS : 0.0;
    obs::TimeSeriesRecorder rec(ts_opt, channels);

    cluster::ClusterOptions co;
    co.max_concurrent_per_node = traffic::kSlotsPerNode;
    co.dispatch = cluster::DispatchPolicy::kLeastLoaded;
    co.health.enabled = true;
    co.health.probe_interval_s = traffic::kProbeIntervalS;
    co.health.eject_after = traffic::kEjectAfter;
    co.health.readmit_after = traffic::kEjectAfter;
    co.failover_budget = traffic::kFailoverBudget;
    co.failover_backoff_s = traffic::kFailoverBackoffS;
    co.service_estimate_s = traffic::kServiceEstimateS;
    co.checkpoint.every_steps = traffic::kCheckpointEverySteps;
    co.crash_node = traffic::kCrashNode;
    co.crash_time_s = crash_time();
    co.tseries = opt.sinks ? &rec : nullptr;
    co.record_intervals = opt.traced;
    cluster::ClusterRouter router(std::move(seats), co);
    for (auto& r : pending_) router.enqueue(std::move(r));
    pending_.clear();
    const Clock::time_point t_run = Clock::now();
    const auto outs = router.run();
    const double run_wall = seconds_since(t_run);

    ExecReport rep;
    rep.wall.set("cluster.run_wall_s", run_wall);
    rep.attempted = static_cast<long long>(outs.size());
    std::vector<RequestOutcome> outcomes;
    engines::EngineCounters counters;
    double makespan = 0.0;
    long long served = 0, shed = 0;
    for (const auto& o : outs) {
      if (!o.served) {
        shed += o.shed ? 1 : 0;
        outcomes.push_back({});
        continue;
      }
      ++served;
      const engines::RunResult& r = o.result;
      outcomes.push_back(served_outcome(o.start - o.arrival, r));
      makespan = std::max(makespan, o.end);
      rep.generated_tokens += r.generated_tokens;
      rep.processed_tokens += r.prompt_tokens + r.generated_tokens;
      counters.add(r.counters);
    }
    const cluster::ClusterStats& cs = router.stats();
    const cluster::RecoveryStats& rs = router.recovery();
    checks.expect(served + shed == rep.attempted,
                  "cluster-chaos: served + shed == attempted");
    checks.expect(rs.lost_sessions == rs.recovered_restored +
                                          rs.recovered_replayed +
                                          rs.recovered_shed,
                  "cluster-chaos: lost == restored + replayed + shed");
    checks.expect(router.total_leaked_pins() == 0,
                  "cluster-chaos: zero leaked pins on every node");
    checks.expect(cs.crashes == 1, "cluster-chaos: node crashed once");
    checks.expect(rs.recovered_restored > 0,
                  "cluster-chaos: recovery.restore_ratio > 0");

    double energy_j = 0.0;
    for (int i = 0; i < router.n_nodes(); ++i) {
      const sim::Timeline& tl = router.node_timeline(i);
      energy_j += sim::compute_energy(sys().platform, tl,
                                      std::max(makespan, tl.span()))
                      .total_j;
    }
    serving_e2e(outcomes, rep.generated_tokens, makespan, energy_j, rep.e2e,
                checks);
    counter_layer(counters, rep.generated_tokens, rep.layer);

    rep.layer.set("cluster.dispatches_per_req",
                  ratio(cs.dispatches, rep.attempted));
    rep.layer.set("cluster.failovers",
                  static_cast<double>(cs.failovers_total()));
    rep.layer.set("cluster.replayed_tokens",
                  static_cast<double>(cs.replayed_tokens));
    double detect = -1.0;
    for (const cluster::HealthEvent& e : router.health_events()) {
      if (e.node == traffic::kCrashNode && e.ejected &&
          e.time >= crash_time()) {
        detect = e.time - crash_time();
        break;
      }
    }
    checks.expect(detect >= 0.0, "cluster-chaos: crashed node ejected");
    rep.layer.set("cluster.detect_s", detect);
    rep.layer.set("recovery.checkpoints_per_ktok",
                  per_ktok(rs.checkpoints_written, rep.generated_tokens));
    rep.layer.set("recovery.restore_ratio",
                  ratio(rs.recovered_restored, rs.lost_sessions));
    rep.layer.set("recovery.restored_tokens",
                  static_cast<double>(rs.restored_tokens));
    rep.layer.set("recovery.torn_rejected",
                  static_cast<double>(rs.torn_rejected));

    obs::MetricsRegistry reg;
    if (opt.sinks) {
      rec.finalize(makespan);
      const obs::AlertReport alerts =
          obs::evaluate_slo_rules(obs::default_slo_rules(), rec);
      const std::vector<obs::Incident> incidents =
          obs::correlate_incidents(alerts, rec, 2.0 * rec.window_s());
      rep.layer.set("obs.alert_episodes",
                    static_cast<double>(alerts.episodes.size()));
      checks.expect(!alerts.episodes.empty(),
                    "cluster-chaos: obs.alert_episodes >= 1");
      record_outcomes(reg, outcomes);
      engines::record_counter_metrics(reg, counters, {});
      if (opt.traced) {
        const Clock::time_point t0 = Clock::now();
        const std::string json = obs::to_tseries_json(rec, alerts, incidents);
        rep.wall.set("obs.tseries_export_ms", seconds_since(t0) * 1e3);
        checks.expect(!json.empty(), "cluster-chaos: tseries export");
      }
    }
    if (opt.traced) {
      AttrSum attr;
      long long ops = 0;
      for (int i = 0; i < router.n_nodes(); ++i) {
        attr.add(router.node_timeline(i), makespan);
        ops += static_cast<long long>(router.node_timeline(i).interval_count());
      }
      attr.emit(rep.generated_tokens, rep.layer, rep.wall);
      rep.layer.set("sim.ops_per_tok", per_token(static_cast<double>(ops),
                                                 rep.processed_tokens));
      rep.wall.set("obs.prom_export_ms", timed_prom_export_ms(reg));
    }
    return rep;
  }

  void layer_probes(const ExecReport& rep, double untraced_wall_s, double,
                    MetricValues& out, Checks& checks) override {
    const auto& cat = per_layer_metrics();
    // Router cost from the untraced, sinks-on execution.
    out.set("cluster.run_us_per_tok",
            per_token(rep.wall.at("cluster.run_wall_s"), rep.processed_tokens,
                      1e6));
    // Sink overhead: the same execution with every sink detached,
    // alternating with sinks-on runs so drift hits both sides.
    std::vector<double> on{untraced_wall_s};
    std::vector<double> off;
    for (int i = 0; i < 2; ++i) {
      for (const bool sinks : {false, true}) {
        prepare();
        const Clock::time_point t0 = Clock::now();
        const ExecReport r = execute({false, sinks}, checks);
        (sinks ? on : off).push_back(seconds_since(t0));
        checks.expect(r.e2e.bit_identical(rep.e2e),
                      "cluster-chaos: sinks leave simulated results unchanged");
      }
    }
    out.set("obs.sink_overhead_frac", median(on) / median(off) - 1.0);
    for (const char* n : {"cache.fills_per_ktok", "cache.refusals_per_ktok",
                          "cache.aborts"}) {
      out.set(n, 0.0);
    }
    out.zero_layer(cat, "eval.");
  }

 private:
  std::vector<PlannedRequest> plan_;
  std::vector<cluster::ClusterRouter::Request> pending_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "paper-decode") return std::make_unique<PaperDecode>();
  if (name == "serve-overload") return std::make_unique<ServeOverload>();
  if (name == "cluster-chaos") return std::make_unique<ClusterChaos>();
  return nullptr;
}

void derive_traffic(std::uint64_t seed) {
  const cache::Placement placement = calibrate(seed);
  const auto probe = [&](double rate, int n) {
    auto plan = make_plan(seed, n, rate, 0, 0.0);
    sim::Timeline tl;
    auto engine = eval::make_engine(kDaop, sys().costs);
    auto o = ServeOverload::scheduler_options();
    o.overload = {};  // no admission control: measure raw service
    eval::ContinuousBatchingScheduler sched(*engine, tl, placement, o);
    for (auto& p : plan) {
      sched.enqueue({p.id, p.arrival, 0.0, std::move(p.trace)});
    }
    std::vector<double> ttft, tpot;
    double makespan = 0.0;
    for (const auto& out : sched.run()) {
      ttft.push_back(out.start - out.arrival + out.result.prefill_s);
      tpot.push_back(out.result.decode_s / out.result.generated_tokens);
      makespan = std::max(makespan, out.end);
    }
    return std::tuple{static_cast<double>(n) / makespan, percentile(ttft, 0.9),
                      percentile(tpot, 0.9)};
  };
  const auto [sat, burst_ttft, burst_tpot] = probe(1e6, 64);
  const auto [calm_rate, calm_ttft, calm_tpot] = probe(sat / 8.0, 64);
  std::printf(
      "burst probe (64 requests at t=0, one %d-slot node): saturation %.6g "
      "req/s, TPOT p90 %.6g s\n"
      "calm probe (64 requests at 1/8 saturation): TTFT p90 %.6g s, TPOT p90 "
      "%.6g s (%.6g req/s drained)\n"
      "=> kNodeSaturationRps %.4g, kServiceEstimateS %.3g, kTpotLimitS %.3g\n",
      traffic::kSlotsPerNode, sat, burst_tpot, calm_ttft, calm_tpot,
      calm_rate, sat, calm_ttft, 1.25 * burst_tpot);
}

}  // namespace perfbench
