#include "eval/serving.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "eval/continuous_batching.hpp"
#include "eval/serving_core.hpp"
#include "model/op_costs.hpp"

namespace daop::eval {

ServingResult run_serving_eval(EngineKind kind,
                               const model::ModelConfig& model_cfg,
                               const sim::PlatformSpec& platform,
                               const data::WorkloadSpec& workload,
                               const ServingOptions& options) {
  const RequestPlan plan(model_cfg, workload, options);
  DAOP_CHECK_GE(options.request_timeout_s, 0.0);
  DAOP_CHECK_GE(options.max_request_retries, 0);
  DAOP_CHECK_GE(options.retry_backoff_s, 0.0);
  DAOP_CHECK_GE(options.max_concurrent, 1);
  options.overload.validate();
  DAOP_CHECK_MSG(!options.overload.enabled() || options.max_concurrent >= 2,
                 "the overload plane layers on the continuous-batching "
                 "scheduler; it needs max_concurrent >= 2");
  options.cache.validate();
  DAOP_CHECK_MSG(!options.cache.enabled() || options.max_concurrent >= 2,
                 "dynamic cache policies score aggregate demand across the "
                 "continuous-batching scheduler's live sessions; they need "
                 "max_concurrent >= 2 (policy frozen is the sequential mode)");

  const sim::CostModel cm(platform);
  const model::OpCosts costs(model_cfg, cm);
  const cache::Placement initial = calibrated_initial_placement(
      model_cfg, options.ecr, options.calibration_seqs, options.seed);

  auto engine = make_engine(kind, costs, options.daop_config);
  sim::FaultModel fault(options.hazards, options.seed ^ 0xFA017ULL);
  if (fault.enabled()) engine->set_fault_model(&fault);
  if (options.tracer != nullptr) engine->set_tracer(options.tracer);
  // Sequential serving runs each request on a private timeline, so the
  // engine-attached profiler records one profile per served request. The
  // continuous-batching branch profiles its shared timeline once instead
  // (sessions on a shared timeline skip per-run recording by contract).
  if (options.profiler != nullptr) engine->set_profiler(options.profiler);

  ServingResult out;
  ServingLedger ledger(out, options);
  // Both serving modes record served requests through the one ledger, plus
  // the per-request spans.
  const auto served = [&](ServingResult::RequestLogEntry log, double start,
                          double end, const engines::RunResult& r) {
    if (options.tracer != nullptr) {
      obs::SpanTracer& tr = *options.tracer;
      const obs::RequestScope scope(&tr, log.id);
      const std::uint32_t q_track = tr.track("Queue");
      const std::uint32_t req_track = tr.track("Request");
      tr.span(q_track, "queue wait", log.arrival, start);
      tr.span(req_track, "request " + std::to_string(log.id), start, end);
      tr.instant(req_track, "first token", start + r.prefill_s);
    }
    ledger.served(std::move(log), start, end, r);
  };

  if (options.max_concurrent > 1) {
    // ---- Continuous batching: shared timeline, arbitrated placement ----
    ContinuousBatchingScheduler::Options sched_opt;
    sched_opt.max_concurrent = options.max_concurrent;
    sched_opt.request_timeout_s = options.request_timeout_s;
    sched_opt.max_request_retries = options.max_request_retries;
    sched_opt.retry_backoff_s = options.retry_backoff_s;
    sched_opt.overload = options.overload;
    sched_opt.cache = options.cache;
    sched_opt.tracer = options.tracer;
    sched_opt.tseries = options.tseries;
    sim::Timeline tl;
    // Attribution needs the shared timeline's interval record; recording is
    // passive and never changes a scheduling decision.
    if (options.profiler != nullptr) tl.set_record_intervals(true);
    ContinuousBatchingScheduler sched(*engine, tl, initial, sched_opt);
    for (const RequestPlan::Request& p : plan.requests()) {
      sched.enqueue({p.id, p.arrival, p.deadline_s, plan.trace(p)});
    }
    for (const auto& o : sched.run()) {
      ServingResult::RequestLogEntry log;
      log.id = o.id;
      log.arrival = o.arrival;
      log.retries = o.retries;
      log.preempted = o.preemptions;
      if (o.shed) {
        ledger.shed(std::move(log), o.shed_reason);
      } else if (!o.served) {
        ledger.dropped(std::move(log));
      } else {
        served(std::move(log), o.start, o.end, o.result);
      }
    }
    if (const cache::ExpertCache* ec = sched.expert_cache()) {
      add_cache_totals(out, *ec, model_cfg.expert_bytes());
      if (options.cache_report != nullptr) *options.cache_report = ec->report();
    }
    const OverloadStats& ov_stats = sched.overload_stats();
    out.degrade_steps_down = ov_stats.degrade_steps_down;
    out.degrade_steps_up = ov_stats.degrade_steps_up;
    out.degrade_peak_level = ov_stats.degrade_peak_level;
    out.degrade_final_level = ov_stats.degrade_final_level;
    // Shared-timeline sessions report no per-session hazard attribution;
    // the stall total belongs to the whole run and is accounted once here.
    out.counters.hazard_stall_s = tl.hazard_stall_s();
    if (options.profiler != nullptr) {
      options.profiler->record_window(
          engine->name() + " [continuous batching]", tl.intervals(),
          tl.hazard_intervals(), 0.0, std::max(ledger.makespan(), tl.span()));
    }
  } else {
    // ---- Sequential FCFS: each request runs alone on a private timeline ----
    TsHook ts(options.tseries);
    double server_free = 0.0;
    for (const RequestPlan::Request& p : plan.requests()) {
      ServingResult::RequestLogEntry log;
      log.id = p.id;
      log.arrival = p.arrival;
      // Client-side timeout loop: a request whose queue wait exceeds the
      // timeout is abandoned at (re-arrival + timeout) and retries after a
      // backoff, up to max_request_retries re-queues; then it is dropped
      // without ever occupying the server.
      double eff_arrival = p.arrival;
      for (;;) {
        const double start = std::max(eff_arrival, server_free);
        if (options.request_timeout_s > 0.0 &&
            start - eff_arrival > options.request_timeout_s) {
          if (log.retries < options.max_request_retries) {
            ++log.retries;
            eff_arrival +=
                options.request_timeout_s + options.retry_backoff_s;
            continue;
          }
          ts.advance(eff_arrival + options.request_timeout_s);
          ts.dropped();
          ledger.dropped(std::move(log));
          break;
        }
        const data::SequenceTrace trace = plan.trace(p);
        const engines::RunResult r = [&] {
          // Engine-local spans start at t=0; shift them onto the serving
          // clock and stamp them with this request's id. RAII scope so a
          // throwing engine cannot leak the id/offset into later spans.
          const obs::RequestScope scope(options.tracer, p.id, start);
          return engine->run(trace, initial, nullptr, p.id);
        }();
        const double end = start + r.total_s;
        server_free = end;
        // Same window-attribution convention as the CB scheduler:
        // admission-time observations at the service start, resolution
        // observations at completion. Both clocks are monotone here.
        const ServedTimes t = served_times(p.arrival, start, end, r);
        ts.advance(start);
        ts.admitted(t.queue_wait_s, t.ttft_s);
        ts.advance(end);
        ts.served(t, r.generated_tokens);
        if (r.counters.hazard_stall_s > 0.0) {
          ts.hazard_stall(r.counters.hazard_stall_s);
        }
        served(std::move(log), start, end, r);
        break;
      }
    }
  }
  for (const ServingResult::RequestLogEntry& e : out.request_log) {
    out.request_retries += e.retries;
    out.preemptions += e.preempted;
  }

  // Seal the final (possibly partial) time-series window at the makespan.
  if (options.tseries != nullptr) options.tseries->finalize(ledger.makespan());

  out.engine = engine->name();
  ledger.finish(options.n_requests);

  if (options.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options.metrics;
    const obs::Labels labels{{"engine", out.engine}};
    ledger.record_metrics(
        reg, "Served requests breaching an SLO, plus dropped requests.",
        "Arrival to service start.");
    reg.counter("daop_serving_requests_total", "Requests by final outcome.",
                obs::Labels{{"engine", out.engine}, {"outcome", "dropped"}})
        .inc(static_cast<double>(out.dropped));
    reg.counter("daop_serving_request_retries_total",
                "Client re-queues after queue-wait timeouts.", labels)
        .inc(static_cast<double>(out.request_retries));
    reg.gauge("daop_serving_busy_fraction",
              "Fraction of the makespan the server spent serving.", labels)
        .set(out.busy_fraction);
    // Overload-plane families only exist when the plane is on
    // (tests/golden/serving_runs.golden hashes the metrics text).
    if (options.overload.enabled()) {
      const auto shed_counter = [&](const char* reason, long long n) {
        reg.counter("daop_requests_shed_total",
                    "Requests rejected by admission control, by reason.",
                    obs::Labels{{"engine", out.engine}, {"reason", reason}})
            .inc(static_cast<double>(n));
      };
      shed_counter("queue_full", out.shed_queue_full);
      shed_counter("deadline", out.shed_deadline);
      shed_counter("degraded", out.shed_degraded);
      reg.counter("daop_session_preemptions_total",
                  "Sessions parked for deadline-critical requests.", labels)
          .inc(static_cast<double>(out.counters.preemptions));
      reg.counter("daop_session_preempt_resumes_total",
                  "Parked sessions resumed.", labels)
          .inc(static_cast<double>(out.counters.preempt_resumes));
      reg.counter("daop_degraded_sessions_total",
                  "Sessions opened under a degradation directive.", labels)
          .inc(static_cast<double>(out.counters.degraded_sessions));
      reg.counter("daop_degrade_steps_total",
                  "Degradation-ladder transitions by direction.",
                  obs::Labels{{"engine", out.engine}, {"direction", "down"}})
          .inc(static_cast<double>(out.degrade_steps_down));
      reg.counter("daop_degrade_steps_total",
                  "Degradation-ladder transitions by direction.",
                  obs::Labels{{"engine", out.engine}, {"direction", "up"}})
          .inc(static_cast<double>(out.degrade_steps_up));
      reg.gauge("daop_degrade_level",
                "Degradation-ladder level at end of run.", labels)
          .set(static_cast<double>(out.degrade_final_level));
      reg.gauge("daop_degrade_peak_level",
                "Deepest degradation-ladder level reached.", labels)
          .set(static_cast<double>(out.degrade_peak_level));
    }
    record_cache_metrics(reg, options.cache, out);
  }
  return out;
}

}  // namespace daop::eval
