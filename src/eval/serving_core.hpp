// Harness core shared by the single-node (eval/serving.cpp) and cluster
// (cluster/serving.cpp) serving harnesses, so both count traffic, outcomes
// and cache telemetry by the same rules and compare on one seed.
#pragma once

#include <vector>

#include "cache/expert_cache.hpp"
#include "data/trace_generator.hpp"
#include "eval/serving.hpp"
#include "eval/serving_record.hpp"
#include "obs/metrics.hpp"

namespace daop::eval {

/// The Poisson request plan of a serving run. Per request, in this order,
/// it draws an exponential inter-arrival gap, a prompt length and a
/// generation length from one RNG seeded by `options.seed`, so every
/// harness serving the same options sees identical traffic.
class RequestPlan {
 public:
  struct Request {
    int id = 0;
    double arrival = 0.0;
    /// First-token budget override: `priority_deadline_s` for every
    /// `priority_every`-th request, else 0 (the harness default applies).
    double deadline_s = 0.0;
    int prompt = 0;
    int gen = 0;
  };

  /// Checks the plan fields of `options` (rate, count, length ranges,
  /// priority mix).
  RequestPlan(const model::ModelConfig& model_cfg,
              const data::WorkloadSpec& workload,
              const ServingPlanOptions& options);

  const std::vector<Request>& requests() const { return requests_; }
  /// The request's routing trace, generated on demand.
  data::SequenceTrace trace(const Request& r) const {
    return gen_.generate(r.id, r.prompt, r.gen);
  }

 private:
  data::TraceGenerator gen_;
  std::vector<Request> requests_;
};

/// Client-observed outcome accounting. Every enqueued request resolves
/// through exactly one of served/shed/dropped, which append its entry to
/// `out.request_log` and update `out`'s counts. Served times come from
/// served_times() against `log.arrival`, the ORIGINAL arrival.
class ServingLedger {
 public:
  /// `out` must outlive the ledger; `options` supplies the SLO thresholds
  /// (checked here).
  ServingLedger(ServingResult& out, const ServingPlanOptions& options);

  /// A request admitted at `start` that completed at `end` with session
  /// result `r`.
  void served(ServingResult::RequestLogEntry log, double start, double end,
              const engines::RunResult& r);
  /// Rejected by admission control or lost: an SLO violation like any
  /// other unserved request.
  void shed(ServingResult::RequestLogEntry log, ShedReason reason);
  /// Abandoned by its client after exhausting its retries.
  void dropped(ServingResult::RequestLogEntry log);

  /// Last completion time so far.
  double makespan() const { return makespan_; }

  /// Checks conservation (served + shed + dropped == `requests`) and seals
  /// the summaries, histograms, makespan, throughput, busy fraction and SLO
  /// violation rate into `out`.
  void finish(int requests);

  /// Emits the serving families both harnesses export, labeled with
  /// `out.engine` (set it and the final counters first). The caller passes
  /// the two help strings its exported text words differently.
  void record_metrics(obs::MetricsRegistry& reg, const char* slo_help,
                      const char* queue_wait_help) const;

 private:
  ServingResult& out_;
  double slo_ttft_s_;
  double slo_latency_s_;
  double busy_ = 0.0;
  long long tokens_ = 0;
  double makespan_ = 0.0;
  std::vector<double> ttft_;
  std::vector<double> latency_;
  std::vector<double> wait_;
  std::vector<double> tpot_;
  obs::HistogramData wait_hist_;
};

/// Adds one dynamic expert cache's fill/eviction/refusal/abort totals to
/// `out`. Each fill moves one expert's weights (`expert_bytes`) over PCIe
/// H2D; the paired eviction is a drop from GPU memory and moves nothing.
void add_cache_totals(ServingResult& out, const cache::ExpertCache& cache,
                      double expert_bytes);

/// Emits the dynamic-cache families from `out`'s totals. Nothing is emitted
/// under policy `frozen`, so frozen-policy metrics text carries no cache
/// families.
void record_cache_metrics(obs::MetricsRegistry& reg,
                          const cache::ExpertCacheOptions& options,
                          const ServingResult& out);

}  // namespace daop::eval
