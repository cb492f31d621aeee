#include "eval/serving_core.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "engines/run_metrics.hpp"

namespace daop::eval {

RequestPlan::RequestPlan(const model::ModelConfig& model_cfg,
                         const data::WorkloadSpec& workload,
                         const ServingOptions& options)
    : gen_(workload, model_cfg.n_layers, model_cfg.n_experts, model_cfg.top_k,
           options.seed) {
  DAOP_CHECK_GT(options.arrival_rate_rps, 0.0);
  DAOP_CHECK_GT(options.n_requests, 0);
  DAOP_CHECK_LE(options.min_prompt, options.max_prompt);
  DAOP_CHECK_LE(options.min_gen, options.max_gen);
  DAOP_CHECK_GE(options.priority_every, 0);
  DAOP_CHECK_GE(options.priority_deadline_s, 0.0);
  if (options.priority_every > 0) {
    DAOP_CHECK_MSG(options.priority_deadline_s > 0.0,
                   "priority_every needs a priority_deadline_s budget");
  }
  Rng rng(options.seed ^ 0x5e7511e5ULL);
  double arrival = 0.0;
  requests_.reserve(static_cast<std::size_t>(options.n_requests));
  for (int i = 0; i < options.n_requests; ++i) {
    Request r;
    r.id = i;
    arrival += -std::log(std::max(rng.uniform(), 1e-12)) /
               options.arrival_rate_rps;
    r.arrival = arrival;
    r.prompt = rng.uniform_int(options.min_prompt, options.max_prompt);
    r.gen = rng.uniform_int(options.min_gen, options.max_gen);
    if (options.priority_every > 0 && (i + 1) % options.priority_every == 0) {
      r.deadline_s = options.priority_deadline_s;
    }
    requests_.push_back(r);
  }
}

ServingLedger::ServingLedger(ServingResult& out, const ServingOptions& options)
    : out_(out),
      slo_ttft_s_(options.slo_ttft_s),
      slo_latency_s_(options.slo_latency_s),
      wait_hist_(obs::default_latency_buckets()) {
  DAOP_CHECK_GE(slo_ttft_s_, 0.0);
  DAOP_CHECK_GE(slo_latency_s_, 0.0);
  out_.ttft_hist = obs::HistogramData(obs::default_latency_buckets());
  out_.tpot_hist = obs::HistogramData(obs::default_latency_buckets());
  out_.latency_hist = obs::HistogramData(obs::default_latency_buckets());
}

void ServingLedger::served(ServingResult::RequestLogEntry log, double start,
                           double end, const engines::RunResult& r) {
  busy_ += r.total_s;
  tokens_ += r.generated_tokens;
  makespan_ = std::max(makespan_, end);
  ++out_.served;
  const ServedTimes t = served_times(log.arrival, start, end, r);
  wait_.push_back(t.queue_wait_s);
  ttft_.push_back(t.ttft_s);
  latency_.push_back(t.latency_s);
  tpot_.push_back(t.tpot_s);
  out_.ttft_hist.observe(t.ttft_s);
  out_.tpot_hist.observe(t.tpot_s);
  out_.latency_hist.observe(t.latency_s);
  wait_hist_.observe(t.queue_wait_s);
  if ((slo_ttft_s_ > 0.0 && t.ttft_s > slo_ttft_s_) ||
      (slo_latency_s_ > 0.0 && t.latency_s > slo_latency_s_)) {
    ++out_.slo_violations;
  }
  out_.counters.add(r.counters);
  log.outcome = "served";
  out_.request_log.push_back(std::move(log));
}

void ServingLedger::shed(ServingResult::RequestLogEntry log,
                         ShedReason reason) {
  ++out_.shed;
  ++out_.slo_violations;
  switch (reason) {
    case ShedReason::kQueueFull:
      ++out_.shed_queue_full;
      break;
    case ShedReason::kDeadline:
      ++out_.shed_deadline;
      break;
    case ShedReason::kDegraded:
      ++out_.shed_degraded;
      break;
    case ShedReason::kNodeLost:
      ++out_.shed_node_lost;
      break;
  }
  log.outcome = std::string("shed:") + shed_reason_name(reason);
  out_.request_log.push_back(std::move(log));
}

void ServingLedger::dropped(ServingResult::RequestLogEntry log) {
  ++out_.dropped;
  ++out_.slo_violations;
  log.outcome = "dropped";
  out_.request_log.push_back(std::move(log));
}

void ServingLedger::finish(int requests) {
  // Conservation: admission control may refuse work but never lose it.
  DAOP_CHECK_EQ(out_.served + out_.dropped + out_.shed, requests);
  out_.requests = requests;
  if (!latency_.empty()) {
    out_.ttft_s = summarize(ttft_);
    out_.latency_s = summarize(latency_);
    out_.queue_wait_s = summarize(wait_);
    out_.tpot_s = summarize(tpot_);
  }
  out_.makespan_s = makespan_;
  out_.slo_violation_rate =
      static_cast<double>(out_.slo_violations) / requests;
  if (makespan_ > 0.0) {
    out_.throughput_tps = static_cast<double>(tokens_) / makespan_;
    out_.busy_fraction = std::min(1.0, busy_ / makespan_);
  }
}

void ServingLedger::record_metrics(obs::MetricsRegistry& reg,
                                   const char* slo_help,
                                   const char* queue_wait_help) const {
  const obs::Labels labels{{"engine", out_.engine}};
  const std::vector<double> buckets = obs::default_latency_buckets();
  reg.counter("daop_serving_requests_total", "Requests by final outcome.",
              obs::Labels{{"engine", out_.engine}, {"outcome", "served"}})
      .inc(static_cast<double>(out_.served));
  reg.counter("daop_serving_slo_violations_total", slo_help, labels)
      .inc(static_cast<double>(out_.slo_violations));
  reg.counter("daop_serving_generated_tokens_total",
              "Tokens generated across served requests.", labels)
      .inc(static_cast<double>(tokens_));
  reg.histogram("daop_serving_ttft_seconds", "Arrival to first output token.",
                buckets, labels)
      .merge(out_.ttft_hist);
  reg.histogram("daop_serving_tpot_seconds",
                "Mean time per output token per request.", buckets, labels)
      .merge(out_.tpot_hist);
  reg.histogram("daop_serving_latency_seconds",
                "Arrival to request completion.", buckets, labels)
      .merge(out_.latency_hist);
  reg.histogram("daop_serving_queue_wait_seconds", queue_wait_help, buckets,
                labels)
      .merge(wait_hist_);
  reg.gauge("daop_serving_throughput_tokens_per_second",
            "Generated tokens per second of makespan.", labels)
      .set(out_.throughput_tps);
  reg.gauge("daop_serving_makespan_seconds", "Last request completion time.",
            labels)
      .set(out_.makespan_s);
  engines::record_counter_metrics(reg, out_.counters, labels);
}

void add_cache_totals(ServingResult& out, const cache::ExpertCache& cache,
                      double expert_bytes) {
  out.cache_fills += cache.fills();
  out.cache_evictions += cache.evictions();
  out.cache_refusals += static_cast<long long>(cache.refusals().size());
  out.cache_aborts += cache.aborts();
  out.cache_bytes_moved = static_cast<double>(out.cache_fills) * expert_bytes;
}

void record_cache_metrics(obs::MetricsRegistry& reg,
                          const cache::ExpertCacheOptions& options,
                          const ServingResult& out) {
  if (!options.enabled()) return;
  const char* policy = cache::cache_policy_name(options.policy);
  const auto cache_counter = [&](const char* kind, long long n) {
    reg.counter("daop_cache_migrations_total",
                "Dynamic expert-cache placement changes, by kind.",
                obs::Labels{{"engine", out.engine},
                            {"kind", kind},
                            {"policy", policy}})
        .inc(static_cast<double>(n));
  };
  cache_counter("fill", out.cache_fills);
  cache_counter("evict", out.cache_evictions);
  const obs::Labels labels{{"engine", out.engine}, {"policy", policy}};
  reg.counter("daop_cache_pin_refusals_total",
              "Cache evictions refused because the victim was pinned by "
              "another session.",
              labels)
      .inc(static_cast<double>(out.cache_refusals));
  reg.counter("daop_cache_migration_aborts_total",
              "Cache swap migrations abandoned by the retry/deadline "
              "discipline.",
              labels)
      .inc(static_cast<double>(out.cache_aborts));
  reg.counter("daop_cache_bytes_moved_total",
              "Expert weight bytes moved over PCIe by cache fills.", labels)
      .inc(out.cache_bytes_moved);
}

}  // namespace daop::eval
