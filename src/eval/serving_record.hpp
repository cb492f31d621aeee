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

/// Help texts of the serving metric families. The end-of-run metrics
/// export (ServingLedger::record_metrics and the two harnesses) and the
/// time-series recorders (TsHook, the cluster router) take them from here,
/// so a family reads the same in every export. Where the sequential/CB
/// server and the cluster count a family differently, each has its own.
namespace family_help {
inline constexpr const char* kRequests = "Requests by final outcome.";
inline constexpr const char* kGeneratedTokens =
    "Tokens generated across served requests.";
inline constexpr const char* kTtft = "Arrival to first output token.";
inline constexpr const char* kTpot = "Mean time per output token per request.";
inline constexpr const char* kLatency = "Arrival to request completion.";
inline constexpr const char* kHazardStall =
    engines::counter_help("daop_hazard_stall_seconds_total");
inline constexpr const char* kPreemptions =
    engines::counter_help("daop_session_preemptions_total");
inline constexpr const char* kPreemptResumes =
    engines::counter_help("daop_session_preempt_resumes_total");
// The sequential/CB server.
inline constexpr const char* kServerQueueWait = "Arrival to service start.";
inline constexpr const char* kServerShed =
    "Requests rejected by admission control, by reason.";
inline constexpr const char* kDegradeSteps =
    "Degradation-ladder transitions by direction.";
inline constexpr const char* kDegradeLevel =
    "Degradation-ladder level at end of run.";
// The cluster.
inline constexpr const char* kClusterQueueWait =
    "Arrival to admission on the serving node.";
inline constexpr const char* kClusterShed =
    "Requests rejected or lost, by reason.";
inline constexpr const char* kDispatches = "Request copies handed to a node.";
inline constexpr const char* kFailovers =
    "Failover re-dispatches after losing every live request copy.";
inline constexpr const char* kCrashes = "Node crashes.";
inline constexpr const char* kHealthTransitions =
    "Health-checker ejections and re-admissions.";
inline constexpr const char* kCheckpoints =
    "Session snapshots durably written across node stores.";
inline constexpr const char* kRecoveryLatency =
    "Last-copy loss to recovered-session readiness (restored and replayed "
    "episodes).";
}  // namespace family_help

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
                           family_help::kHazardStall);
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
                  family_help::kServerQueueWait, wait_s);
    rec_->observe(kChannel, "daop_serving_ttft_seconds", family_help::kTtft,
                  ttft_s);
  }
  /// A request that generated no tokens records no TPOT.
  void served(const ServedTimes& t, long long tokens) {
    if (rec_ == nullptr) return;
    rec_->count(kChannel, "daop_serving_requests_total", family_help::kRequests, 1.0,
                {{"outcome", "served"}});
    rec_->count(kChannel, "daop_serving_generated_tokens_total",
                family_help::kGeneratedTokens, static_cast<double>(tokens));
    rec_->observe(kChannel, "daop_serving_latency_seconds",
                  family_help::kLatency, t.latency_s);
    if (tokens > 0) {
      rec_->observe(kChannel, "daop_serving_tpot_seconds",
                    family_help::kTpot, t.tpot_s);
    }
  }
  void dropped() {
    if (rec_ == nullptr) return;
    rec_->count(kChannel, "daop_serving_requests_total", family_help::kRequests, 1.0,
                {{"outcome", "dropped"}});
  }
  void shed(ShedReason reason) {
    if (rec_ == nullptr) return;
    rec_->count(kChannel, "daop_serving_requests_total", family_help::kRequests, 1.0,
                {{"outcome", "shed"}});
    rec_->count(kChannel, "daop_requests_shed_total",
                family_help::kServerShed, 1.0,
                {{"reason", shed_reason_name(reason)}});
  }
  void preempted() {
    if (rec_ == nullptr) return;
    rec_->count(kChannel, "daop_session_preemptions_total",
                family_help::kPreemptions);
  }
  void resumed() {
    if (rec_ == nullptr) return;
    rec_->count(kChannel, "daop_session_preempt_resumes_total",
                family_help::kPreemptResumes);
  }
  void degrade_event(const DegradationEvent& e) {
    if (rec_ == nullptr) return;
    rec_->count(kChannel, "daop_degrade_steps_total",
                family_help::kDegradeSteps, 1.0,
                {{"direction", e.down ? "down" : "up"}});
    rec_->gauge_set(kChannel, "daop_degrade_level",
                    family_help::kDegradeLevel, static_cast<double>(e.level));
    rec_->record_event(
        e.time, kChannel, e.down ? "degrade" : "recover",
        std::string("level ") +
            degrade_level_name(static_cast<DegradeLevel>(e.level)));
  }

 private:
  static constexpr int kChannel = 0;
  obs::TimeSeriesRecorder* rec_;
  /// The per-decision samples, declared once (see obs::SeriesHandle).
  obs::SeriesHandle stall_;
  obs::SeriesHandle queue_depth_;
  obs::SeriesHandle active_;
  obs::SeriesHandle parked_;
};

}  // namespace daop::eval
