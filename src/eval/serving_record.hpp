// How a served request is recorded (internal to the serving stack): the
// client-observed time formulas every serving path uses, and the
// time-series adapter through which the continuous-batching scheduler and
// the sequential server record on channel 0.
#pragma once

#include <cstddef>
#include <string>

#include "engines/engine.hpp"
#include "eval/overload.hpp"
#include "obs/timeseries.hpp"

namespace daop::eval {

/// Client-observed times of one served request. All count from the
/// ORIGINAL `arrival`, so retry waits, failover backoffs and re-run
/// prefills show up in them.
struct ServedTimes {
  double queue_wait_s = 0.0;
  double ttft_s = 0.0;
  double latency_s = 0.0;
  double tpot_s = 0.0;  ///< 0 when the request generated no tokens
};

/// The times of a request admitted at `start` that completed at `end` with
/// session result `r`.
inline ServedTimes served_times(double arrival, double start, double end,
                                const engines::RunResult& r) {
  ServedTimes t;
  t.queue_wait_s = start - arrival;
  t.ttft_s = t.queue_wait_s + r.prefill_s;
  t.latency_s = end - arrival;
  t.tpot_s = r.generated_tokens > 0 ? r.decode_s / r.generated_tokens : 0.0;
  return t;
}

/// Null-gated time-series shim. Every method is a no-op when no recorder is
/// attached, so the hot path costs one pointer test per decision and the
/// recorder stays strictly passive.
class TsHook {
 public:
  explicit TsHook(obs::TimeSeriesRecorder* rec) : rec_(rec) {
    if (rec_ == nullptr) return;
    stall_ = rec_->counter(kChannel, "daop_hazard_stall_seconds_total",
                           kHazardHelp);
    queue_depth_ = rec_->gauge(kChannel, "daop_queue_depth",
                               "Arrived requests waiting for admission.");
    active_ = rec_->gauge(kChannel, "daop_active_sessions",
                          "In-flight decode sessions.");
    parked_ = rec_->gauge(kChannel, "daop_parked_sessions",
                          "Preempted sessions awaiting resume.");
  }
  bool on() const { return rec_ != nullptr; }

  /// Recordings that follow land in the grid window containing `t`.
  void advance(double t) {
    if (rec_ == nullptr) return;
    rec_->advance(kChannel, t);
  }
  /// Called once per scheduling decision, BEFORE the decision's recordings,
  /// so each lands in the grid window containing its decision time.
  void decision(double t, double hazard_stall_s, long long waiting,
                std::size_t active, std::size_t parked) {
    if (rec_ == nullptr) return;
    rec_->advance(kChannel, t);
    rec_->add_total(stall_, hazard_stall_s);
    rec_->set(queue_depth_, static_cast<double>(waiting));
    rec_->set(active_, static_cast<double>(active));
    rec_->set(parked_, static_cast<double>(parked));
  }
  /// Hazard stall seconds added since the last recording (the sequential
  /// server's per-request private timelines have no cumulative total).
  void hazard_stall(double delta_s) {
    if (rec_ == nullptr) return;
    rec_->add(stall_, delta_s);
  }
  void admitted(double wait_s, double ttft_s) {
    if (rec_ == nullptr) return;
    rec_->observe(kChannel, "daop_serving_queue_wait_seconds",
                  "Admission queue wait per served request.", wait_s);
    rec_->observe(kChannel, "daop_serving_ttft_seconds",
                  "Time to first token (arrival to end of prefill).",
                  ttft_s);
  }
  /// A request that generated no tokens records no TPOT.
  void served(const ServedTimes& t, long long tokens) {
    if (rec_ == nullptr) return;
    rec_->count(kChannel, "daop_serving_requests_total", kRequestsHelp, 1.0,
                {{"outcome", "served"}});
    rec_->count(kChannel, "daop_serving_generated_tokens_total",
                "Decode tokens generated by served requests.",
                static_cast<double>(tokens));
    rec_->observe(kChannel, "daop_serving_latency_seconds",
                  "End-to-end latency (arrival to completion).", t.latency_s);
    if (tokens > 0) {
      rec_->observe(kChannel, "daop_serving_tpot_seconds",
                    "Mean time per generated token.", t.tpot_s);
    }
  }
  void dropped() {
    if (rec_ == nullptr) return;
    rec_->count(kChannel, "daop_serving_requests_total", kRequestsHelp, 1.0,
                {{"outcome", "dropped"}});
  }
  void shed(ShedReason reason) {
    if (rec_ == nullptr) return;
    rec_->count(kChannel, "daop_serving_requests_total", kRequestsHelp, 1.0,
                {{"outcome", "shed"}});
    rec_->count(kChannel, "daop_requests_shed_total",
                "Requests rejected by admission control.", 1.0,
                {{"reason", shed_reason_name(reason)}});
  }
  void preempted() {
    if (rec_ == nullptr) return;
    rec_->count(kChannel, "daop_session_preemptions_total",
                "Sessions parked by preemptive admission.");
  }
  void resumed() {
    if (rec_ == nullptr) return;
    rec_->count(kChannel, "daop_session_resumes_total",
                "Parked sessions resumed into a freed slot.");
  }
  void degrade_event(const DegradationEvent& e) {
    if (rec_ == nullptr) return;
    rec_->count(kChannel, "daop_degrade_steps_total",
                "Degradation ladder steps.", 1.0,
                {{"direction", e.down ? "down" : "up"}});
    rec_->gauge_set(kChannel, "daop_degrade_level",
                    "Current degradation ladder level.",
                    static_cast<double>(e.level));
    rec_->record_event(
        e.time, kChannel, e.down ? "degrade" : "recover",
        std::string("level ") +
            degrade_level_name(static_cast<DegradeLevel>(e.level)));
  }

 private:
  static constexpr int kChannel = 0;
  static constexpr const char* kHazardHelp =
      "Simulated seconds lost to injected hazard stalls.";
  static constexpr const char* kRequestsHelp = "Request resolutions.";
  obs::TimeSeriesRecorder* rec_;
  /// The per-decision samples, declared once (see obs::SeriesHandle).
  obs::SeriesHandle stall_;
  obs::SeriesHandle queue_depth_;
  obs::SeriesHandle active_;
  obs::SeriesHandle parked_;
};

}  // namespace daop::eval
