#include "cluster/serving.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "eval/serving_core.hpp"
#include "model/op_costs.hpp"

namespace daop::cluster {

void ClusterServingOptions::validate() const {
  DAOP_CHECK_GE(n_nodes, 1);
  cluster.validate();
  node_hazards.validate();
  if (!node_placements.empty()) {
    DAOP_CHECK_EQ(node_placements.size(), static_cast<std::size_t>(n_nodes));
  }
}

ClusterServingResult run_cluster_serving_eval(
    eval::EngineKind kind, const model::ModelConfig& model_cfg,
    const sim::PlatformSpec& platform, const data::WorkloadSpec& workload,
    const ClusterServingOptions& options) {
  options.validate();
  // The single-node request plan, so cluster and single-node runs on one
  // seed serve identical traffic.
  const eval::RequestPlan plan(model_cfg, workload, options.base);
  ClusterServingResult out;
  eval::ServingLedger ledger(out, options.base);

  const sim::CostModel cm(platform);
  const model::OpCosts costs(model_cfg, cm);

  // Homogeneous replicas start from the very placement the single-node
  // server would use.
  const cache::Placement calibrated = eval::calibrated_initial_placement(
      model_cfg, options.base.ecr, options.base.calibration_seqs,
      options.base.seed);

  std::vector<ClusterRouter::NodeSeat> seats;
  seats.reserve(static_cast<std::size_t>(options.n_nodes));
  for (int i = 0; i < options.n_nodes; ++i) {
    ClusterRouter::NodeSeat seat;
    seat.engine = eval::make_engine(kind, costs, options.base.daop_config);
    // Per-node fault stream: independent of the node index ordering of the
    // other nodes and of the single-node stream (seed ^ 0xFA017).
    const std::uint64_t node_seed =
        options.base.seed ^ 0xC105731ULL ^
        (static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ULL);
    auto fault =
        std::make_unique<sim::FaultModel>(options.node_hazards, node_seed);
    if (fault->enabled()) seat.fault = std::move(fault);
    seat.initial = options.node_placements.empty()
                       ? calibrated
                       : options.node_placements[static_cast<std::size_t>(i)];
    seats.push_back(std::move(seat));
  }

  ClusterOptions router_opts = options.cluster;
  if (router_opts.tracer == nullptr) router_opts.tracer = options.base.tracer;
  if (router_opts.tseries == nullptr) {
    router_opts.tseries = options.base.tseries;
  }
  // Profiler attribution needs each node timeline's interval record;
  // recording is passive and never changes a scheduling decision.
  if (options.base.profiler != nullptr) router_opts.record_intervals = true;
  ClusterRouter router(std::move(seats), router_opts);

  for (const eval::RequestPlan::Request& p : plan.requests()) {
    router.enqueue({p.id, p.arrival, p.deadline_s, plan.trace(p)});
  }

  const std::vector<ClusterRouter::Outcome> outcomes = router.run();
  // Satellite invariant, re-asserted at the harness boundary: no cluster
  // run may end with a pinned expert anywhere.
  DAOP_CHECK_EQ(router.total_leaked_pins(), 0);

  for (const ClusterRouter::Outcome& o : outcomes) {
    eval::ServingResult::RequestLogEntry log;
    log.id = o.id;
    log.arrival = o.arrival;
    log.retries = o.failovers;
    log.restores = o.restores;
    if (!o.recovery.empty()) log.recovery = o.recovery;
    if (o.shed) {
      ledger.shed(std::move(log), o.shed_reason);
    } else {
      ledger.served(std::move(log), o.start, o.end, o.result);
    }
  }

  out.cluster = router.stats();
  out.recovery = router.recovery();
  out.health_events = router.health_events();
  DAOP_CHECK_MSG(out.shed_queue_full == 0,
                 "cluster router never sheds queue_full");
  DAOP_CHECK_EQ(out.shed_node_lost, out.cluster.shed_node_lost);
  DAOP_CHECK_EQ(out.shed_deadline, out.cluster.shed_deadline);
  DAOP_CHECK_EQ(out.shed_degraded, out.cluster.shed_degraded);

  // Hazard stall is a per-timeline total (shared sessions report none), so
  // every node's timeline is accounted once; dynamic-cache totals sum the
  // per-node caches.
  double stall = 0.0;
  for (int i = 0; i < router.n_nodes(); ++i) {
    stall += router.node_timeline(i).hazard_stall_s();
    if (const cache::ExpertCache* ec = router.node_cache(i)) {
      eval::add_cache_totals(out, *ec, model_cfg.expert_bytes());
    }
  }
  out.counters.hazard_stall_s = stall;

  out.engine = std::string("cluster[") + std::to_string(options.n_nodes) +
               "x " + eval::engine_kind_name(kind) + "]";
  // Seal the final time-series window at the run makespan (the recorder the
  // router recorded into — router_opts.tseries — which defaulted from the
  // base sink above).
  const double makespan = ledger.makespan();
  if (router_opts.tseries != nullptr) router_opts.tseries->finalize(makespan);
  if (options.base.profiler != nullptr) {
    // One whole-window profile per node timeline, mirroring the
    // continuous-batching harness's shared-timeline record (per-request
    // phases are not attributable to one session).
    for (int i = 0; i < router.n_nodes(); ++i) {
      const sim::Timeline& tl = router.node_timeline(i);
      options.base.profiler->record_window(
          out.engine + " [node " + std::to_string(i) + "]", tl.intervals(),
          tl.hazard_intervals(), 0.0, std::max(makespan, tl.span()));
    }
  }
  ledger.finish(options.base.n_requests);

  if (options.base.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options.base.metrics;
    const obs::Labels labels{{"engine", out.engine}};
    const std::vector<double> buckets = obs::default_latency_buckets();
    ledger.record_metrics(
        reg, "Served requests breaching an SLO, plus shed requests.",
        "Arrival to admission on the serving node.");

    const auto shed_counter = [&](const char* reason, long long n) {
      reg.counter("daop_requests_shed_total",
                  "Requests rejected or lost, by reason.",
                  obs::Labels{{"engine", out.engine}, {"reason", reason}})
          .inc(static_cast<double>(n));
    };
    shed_counter("node_lost", out.shed_node_lost);
    shed_counter("deadline", out.shed_deadline);
    shed_counter("degraded", out.shed_degraded);

    const ClusterStats& cs = out.cluster;
    reg.gauge("daop_cluster_nodes", "Configured node replicas.", labels)
        .set(static_cast<double>(router.n_nodes()));
    reg.counter("daop_cluster_dispatches_total",
                "Request copies handed to a node.", labels)
        .inc(static_cast<double>(cs.dispatches));
    reg.counter(
           "daop_cluster_failovers_total",
           "Failover re-dispatches after losing every live request copy.",
           obs::Labels{{"engine", out.engine}, {"reason", "node-crash"}})
        .inc(static_cast<double>(cs.failovers_node_crash));
    reg.counter(
           "daop_cluster_failovers_total",
           "Failover re-dispatches after losing every live request copy.",
           obs::Labels{{"engine", out.engine}, {"reason", "dead-dispatch"}})
        .inc(static_cast<double>(cs.failovers_dead_dispatch));
    reg.counter("daop_cluster_replayed_tokens_total",
                "Tokens regenerated by failover re-dispatches.", labels)
        .inc(static_cast<double>(cs.replayed_tokens));
    const auto hedge_counter = [&](const char* outcome, long long n) {
      reg.counter("daop_cluster_hedges_total",
                  "Hedged dispatches by outcome.",
                  obs::Labels{{"engine", out.engine}, {"outcome", outcome}})
          .inc(static_cast<double>(n));
    };
    hedge_counter("issued", cs.hedges);
    hedge_counter("won", cs.hedge_wins);
    hedge_counter("cancelled", cs.hedge_cancels);
    reg.counter("daop_cluster_crashes_total", "Node crashes.", labels)
        .inc(static_cast<double>(cs.crashes));
    reg.counter("daop_cluster_health_transitions_total",
                "Health-checker ejections and re-admissions.",
                obs::Labels{{"engine", out.engine}, {"direction", "eject"}})
        .inc(static_cast<double>(cs.ejections));
    reg.counter("daop_cluster_health_transitions_total",
                "Health-checker ejections and re-admissions.",
                obs::Labels{{"engine", out.engine}, {"direction", "readmit"}})
        .inc(static_cast<double>(cs.readmissions));
    reg.counter("daop_cluster_readmit_total",
                "Nodes re-admitted to service by the health checker after a "
                "recovery or brownout clearing.",
                labels)
        .inc(static_cast<double>(cs.readmissions));
    for (int i = 0; i < router.n_nodes(); ++i) {
      const obs::Labels node_labels{{"engine", out.engine},
                                    {"node", std::to_string(i)}};
      reg.gauge("daop_cluster_node_state",
                "Per-node end state: 0 crashed, 1 ejected, 2 in service.",
                node_labels)
          .set(static_cast<double>(
              cs.node_final_state[static_cast<std::size_t>(i)]));
      reg.counter("daop_cluster_node_served_total",
                  "Requests served, by node.", node_labels)
          .inc(static_cast<double>(
              cs.node_served[static_cast<std::size_t>(i)]));
    }

    // Recovery families only exist when checkpointing is on, so
    // checkpoint-off cluster metrics stay bit-identical to PR 8.
    if (options.cluster.checkpoint.enabled()) {
      const RecoveryStats& rs = out.recovery;
      reg.counter("daop_recovery_checkpoints_total",
                  "Session snapshots durably written across node stores.",
                  labels)
          .inc(static_cast<double>(rs.checkpoints_written));
      reg.counter("daop_recovery_checkpoint_bytes_total",
                  "Sealed snapshot bytes written across node stores.", labels)
          .inc(static_cast<double>(rs.checkpoint_bytes));
      const auto fault_counter = [&](const char* kind_label, long long n) {
        reg.counter("daop_recovery_checkpoint_faults_total",
                    "Checkpoint writes damaged at write time, by kind.",
                    obs::Labels{{"engine", out.engine}, {"kind", kind_label}})
            .inc(static_cast<double>(n));
      };
      fault_counter("torn", rs.torn_writes);
      fault_counter("corrupt", rs.corrupt_writes);
      reg.counter("daop_recovery_torn_rejections_total",
                  "Snapshots rejected by restore-side validation "
                  "(magic/version/length/checksum).",
                  labels)
          .inc(static_cast<double>(rs.torn_rejected));
      reg.counter("daop_recovery_restores_total",
                  "Loss episodes resolved by warm restore from a snapshot.",
                  labels)
          .inc(static_cast<double>(rs.restores));
      const auto fallback_counter = [&](const char* reason, long long n) {
        reg.counter("daop_recovery_fallbacks_total",
                    "Warm restores that fell back to prefill replay, by "
                    "reason.",
                    obs::Labels{{"engine", out.engine}, {"reason", reason}})
            .inc(static_cast<double>(n));
      };
      fallback_counter("no-checkpoint", rs.fallbacks_no_checkpoint);
      fallback_counter("invalid", rs.fallbacks_invalid);
      const auto session_counter = [&](const char* outcome, long long n) {
        reg.counter("daop_recovery_sessions_total",
                    "Loss episodes by resolution (conservation: the three "
                    "outcomes sum to lost sessions).",
                    obs::Labels{{"engine", out.engine}, {"outcome", outcome}})
            .inc(static_cast<double>(n));
      };
      session_counter("restored", rs.recovered_restored);
      session_counter("replayed", rs.recovered_replayed);
      session_counter("shed", rs.recovered_shed);
      const auto token_counter = [&](const char* path, long long n) {
        reg.counter("daop_recovery_tokens_total",
                    "Decode tokens by recovery path: restored from a "
                    "snapshot vs regenerated by replay.",
                    obs::Labels{{"engine", out.engine}, {"path", path}})
            .inc(static_cast<double>(n));
      };
      token_counter("restored", rs.restored_tokens);
      token_counter("replayed", cs.replayed_tokens);
      obs::HistogramData rec_hist(buckets);
      for (const double v : rs.recovery_latency_s) rec_hist.observe(v);
      reg.histogram("daop_recovery_latency_seconds",
                    "Last-copy loss to recovered-session readiness "
                    "(restored and replayed episodes).",
                    buckets, labels)
          .merge(rec_hist);
    }

    eval::record_cache_metrics(reg, options.cluster.cache, out);
  }
  return out;
}

}  // namespace daop::cluster
