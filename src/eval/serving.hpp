// Interactive-serving simulation: a single-device FCFS queue of chat
// requests with Poisson arrivals, served by one inference engine.
//
// The paper evaluates single-stream throughput (batch size 1, §V-A(c));
// this harness extends the evaluation to the deployment question a chatbot
// operator actually has: at a given request rate, what time-to-first-token
// and end-to-end latency does each engine deliver, and where does it
// saturate?
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/expert_cache.hpp"
#include "common/stats.hpp"
#include "eval/overload.hpp"
#include "eval/speed.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/span_tracer.hpp"
#include "obs/timeseries.hpp"

namespace daop::eval {

/// What every serving harness reads: the request plan (RequestPlan), the
/// SLO thresholds (ServingLedger), the engine and initial-placement set-up,
/// and the observability sinks. The cluster harness takes exactly this
/// (cluster/serving.hpp); ServingOptions adds the single-node server's own
/// knobs.
struct ServingPlanOptions {
  /// Mean request arrival rate (requests/second, Poisson process).
  double arrival_rate_rps = 0.02;
  int n_requests = 24;
  int min_prompt = 64;
  int max_prompt = 320;
  int min_gen = 48;
  int max_gen = 256;
  double ecr = 0.469;
  int calibration_seqs = 32;
  std::uint64_t seed = 99;
  core::DaopConfig daop_config;

  /// SLO thresholds for violation accounting; 0 disables the corresponding
  /// check.
  double slo_ttft_s = 0.0;
  double slo_latency_s = 0.0;

  /// Deadline-critical request mix: every `priority_every`-th request
  /// (indices priority_every-1, 2*priority_every-1, ...) carries the
  /// tighter `priority_deadline_s` first-token budget instead of the
  /// harness default (`overload.deadline_s` on one node, `cluster.
  /// deadline_s` on a cluster) — the interactive traffic class that
  /// exercises `deadline-edf` ordering and preemption. 0 = uniform
  /// deadlines.
  int priority_every = 0;
  double priority_deadline_s = 0.0;

  // ---- Observability (all default off) ----
  // Attaching any is strictly passive: the simulated schedule, queue
  // decisions and all timing results stay bit-identical.
  /// Receives serving latency histograms, request outcome counters and the
  /// summed engine counters.
  obs::MetricsRegistry* metrics = nullptr;
  /// Receives per-request spans (queue wait, request service, first-token
  /// instant) plus the engine's own spans shifted onto the serving clock.
  obs::SpanTracer* tracer = nullptr;
  /// Receives critical-path attribution profiles (obs/profiler.hpp). In the
  /// sequential mode every served request records its own per-run profile;
  /// in continuous-batching mode the shared timeline's whole window is
  /// profiled once (per-request phases are not attributable to one session).
  obs::Profiler* profiler = nullptr;
  /// Receives windowed time series over simulated time
  /// (obs/timeseries.hpp), recorded on channel 0 as scheduling decisions
  /// resolve and finalized at the run makespan. Strictly passive like the
  /// other sinks.
  obs::TimeSeriesRecorder* tseries = nullptr;
};

/// The single-node server: the shared plan plus its concurrency, hazard,
/// client-retry, overload and dynamic-cache knobs.
struct ServingOptions : ServingPlanOptions {
  /// Maximum simultaneously in-flight requests. 1 (the default) is the
  /// sequential FCFS server — bit-identical to the pre-scheduler harness.
  /// >= 2 switches to the continuous-batching scheduler
  /// (eval/continuous_batching.hpp): in-flight sessions share one timeline
  /// and one arbitrated expert placement, and decode steps interleave at
  /// iteration level. Same request plan, timeout and SLO semantics either
  /// way, so the two modes are directly comparable on one seed.
  int max_concurrent = 1;

  /// Hazard environment injected into every served request (default: calm
  /// device — bit-identical to serving without a fault plane).
  sim::HazardScenario hazards;

  /// Client-side queue-wait timeout: a request still unserved this long
  /// after (re-)arriving is abandoned by its client. 0 = clients wait
  /// forever (the pre-fault-plane behaviour).
  double request_timeout_s = 0.0;
  /// How many times an abandoned request re-enters the queue before it is
  /// dropped for good.
  int max_request_retries = 0;
  /// Client backoff between abandoning and retrying.
  double retry_backoff_s = 0.5;

  /// Overload-control plane (eval/overload.hpp): admission policy, bounded
  /// queue, deadline shedding, preemption, hazard-adaptive degradation.
  /// Default-constructed it is disabled and serving is bit-identical to the
  /// pre-overload harness. Requires max_concurrent >= 2 (it layers on the
  /// continuous-batching scheduler).
  OverloadOptions overload;

  /// Dynamic expert-cache policy (cache/expert_cache.hpp). Policy `frozen`
  /// (the default) keeps DAOP's prefill-frozen placement and is
  /// bit-identical to the pre-cache harness. A dynamic policy requires
  /// max_concurrent >= 2 — the cache scores aggregate demand across the
  /// continuous-batching scheduler's live sessions.
  cache::ExpertCacheOptions cache;
  /// When non-null and the cache is enabled, receives the cache's
  /// fig8-style attribution report after the run (`--cache-report`).
  std::string* cache_report = nullptr;
};

struct ServingResult {
  std::string engine;
  int requests = 0;
  Summary ttft_s;          ///< arrival -> first output token (served only)
  Summary latency_s;       ///< arrival -> request complete (served only)
  Summary queue_wait_s;    ///< arrival -> service start (served only)
  Summary tpot_s;          ///< mean time per output token (served only)
  /// Bucketed latency distributions (default_latency_buckets), observed per
  /// served request. histogram_quantile over these agrees with the exact
  /// Summary percentiles to within one bucket width.
  obs::HistogramData ttft_hist;
  obs::HistogramData tpot_hist;
  obs::HistogramData latency_hist;
  double throughput_tps = 0.0;  ///< generated tokens / makespan
  double makespan_s = 0.0;
  /// Summed service time of served requests over the makespan, clamped to
  /// 1 (1.0 ≈ saturated).
  double busy_fraction = 0.0;

  // ---- Robustness telemetry ----
  int served = 0;                 ///< requests that completed service
  int dropped = 0;                ///< abandoned after exhausting retries
  long long request_retries = 0;  ///< client re-queues after timeouts
  /// Served requests breaching an SLO threshold, plus dropped and shed
  /// requests.
  int slo_violations = 0;
  double slo_violation_rate = 0.0;  ///< slo_violations / requests
  /// Engine counters summed over served requests (migration retries,
  /// aborts, stale pre-calcs, hazard stall time, ...).
  engines::EngineCounters counters;

  // ---- Overload-control telemetry (all zero when the plane is off) ----
  int shed = 0;  ///< rejected by admission control (conservation:
                 ///< served + dropped + shed == requests, DAOP_CHECKed)
  long long shed_queue_full = 0;
  long long shed_deadline = 0;
  long long shed_degraded = 0;
  /// Cluster-only reason (failover budget exhausted after node crashes);
  /// always 0 in single-node serving, populated by cluster/serving.
  long long shed_node_lost = 0;
  long long preemptions = 0;  ///< sessions parked for deadline-critical work
  long long degrade_steps_down = 0;
  long long degrade_steps_up = 0;
  int degrade_peak_level = 0;
  int degrade_final_level = 0;

  // ---- Dynamic-cache telemetry (all zero under policy `frozen`) ----
  long long cache_fills = 0;      ///< experts promoted to the GPU
  long long cache_evictions = 0;  ///< experts demoted (== fills: swaps)
  long long cache_refusals = 0;   ///< evictions refused (victim pinned)
  long long cache_aborts = 0;     ///< swap migrations abandoned
  double cache_bytes_moved = 0.0; ///< fills × per-expert weight bytes (PCIe)

  /// Per-request outcome log, in request-id order, for offline inspection
  /// (`daop_cli serve --out-json` embeds it as `daopRequests`). Populated
  /// by both serving modes.
  struct RequestLogEntry {
    long long id = 0;
    double arrival = 0.0;
    /// "served", "dropped" (client timeout), or "shed:<reason>" with reason
    /// one of queue_full / deadline / degraded.
    std::string outcome;
    long long retries = 0;
    long long preempted = 0;  ///< times this request's session was parked
    /// Loss episodes recovered via warm restore (cluster mode only).
    long long restores = 0;
    /// How the last loss episode resolved — "restored" | "replayed" |
    /// "shed" — or "none" when the request never lost all its copies
    /// (always "none" outside cluster mode).
    std::string recovery = "none";
  };
  std::vector<RequestLogEntry> request_log;
};

/// Simulates `options.n_requests` requests through a FCFS queue served by
/// `kind`. Deterministic in the options' seed.
ServingResult run_serving_eval(EngineKind kind,
                               const model::ModelConfig& model_cfg,
                               const sim::PlatformSpec& platform,
                               const data::WorkloadSpec& workload,
                               const ServingOptions& options);

}  // namespace daop::eval
