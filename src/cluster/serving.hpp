// Cluster serving harness: the run_serving_eval experience for an N-node
// fault-tolerant cluster (cluster/router.hpp).
//
// Builds one engine + fault model + arbitrated placement per node, replays
// the single-node request plan (eval::RequestPlan), routes it through a
// ClusterRouter, and counts outcomes with the single-node harness's ledger
// (eval::ServingLedger) — TTFT, latency and queue wait all measured from
// the ORIGINAL arrival, so failover delays and hedging savings show up in
// the distributions and single-node vs cluster runs are directly comparable
// on one seed.
//
// Deterministic in (options, seed). Node i's fault model draws from
// seed ^ 0xC105731 ^ (i * golden-ratio), so per-node fault outcomes are
// independent of each other and of the single-node fault stream.
#pragma once

#include <vector>

#include "cache/placement.hpp"
#include "cluster/router.hpp"
#include "eval/serving.hpp"
#include "eval/speed.hpp"

namespace daop::cluster {

struct ClusterServingOptions {
  /// Workload plan (arrival rate, request count, prompt/gen ranges, seed,
  /// ecr, calibration), SLO thresholds and observability sinks. The plan
  /// fields are interpreted exactly as run_serving_eval does; `base.
  /// max_concurrent`, `base.overload` and the client retry knobs are NOT
  /// used here (per-node concurrency comes from `cluster.
  /// max_concurrent_per_node`, shedding from the router's failover and
  /// deadline planes).
  eval::ServingOptions base;
  int n_nodes = 4;
  /// Router configuration (dispatch policy, health checking, failover
  /// budget, hedging, degradation, explicit crash injection).
  ClusterOptions cluster;
  /// Hazard scenario drawn independently per node (node-crash /
  /// node-brownout / link-degrade presets live here; see
  /// sim::make_hazard_scenario's "cluster" kind). Default: calm nodes.
  sim::HazardScenario node_hazards;
  /// Optional per-node initial placements (size n_nodes). Empty: every node
  /// starts from the same calibrated placement run_serving_eval would use —
  /// the homogeneous-replica default. Heterogeneous placements are what
  /// makes `expert-affinity` dispatch distinguish nodes.
  std::vector<cache::Placement> node_placements;

  void validate() const;
};

/// The single-node serving result, counted by the same ledger (cluster
/// runs never drop, so `dropped` stays 0 and `served + shed == requests`;
/// `request_log` retries carry failover re-dispatches; engine counters'
/// hazard_stall_s totals every node timeline once; cache totals sum the
/// per-node caches), plus the cluster-only telemetry.
struct ClusterServingResult : eval::ServingResult {
  /// Router-level telemetry: failovers, replayed tokens, hedges, crashes,
  /// ejections, per-node dispatch/serve counts and final states.
  ClusterStats cluster;
  /// Warm-restart recovery telemetry (all zero with checkpointing off,
  /// except the loss-episode conservation counts, which are always kept).
  RecoveryStats recovery;
  std::vector<HealthEvent> health_events;
};

/// Simulates `options.base.n_requests` requests through an N-node cluster.
/// Deterministic in the options' seed.
ClusterServingResult run_cluster_serving_eval(
    eval::EngineKind kind, const model::ModelConfig& model_cfg,
    const sim::PlatformSpec& platform, const data::WorkloadSpec& workload,
    const ClusterServingOptions& options);

}  // namespace daop::cluster
