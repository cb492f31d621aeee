// Overload-control plane for the serving scheduler (daop::eval).
//
// A production on-device server cannot answer overload with "queue forever"
// or leave hazard storms to client-side timeouts. This module adds the three
// active responses, layered on the continuous-batching scheduler
// (eval/continuous_batching.hpp):
//
//  - ADMISSION CONTROL: a bounded queue with a configurable policy (`fifo`,
//    `lifo-shed`, `deadline-edf`) that rejects or sheds requests when the
//    queue overflows or a request's projected time-to-first-token exceeds
//    its deadline budget. Every shed is labeled with a ShedReason and
//    surfaces as `daop_requests_shed_total{reason=...}`.
//  - SESSION PREEMPTION: under `deadline-edf` with preemption enabled, a
//    deadline-critical arrival may park the in-flight session with the
//    LATEST deadline (releasing its PlacementArbiter pins so the shared
//    cache unfreezes), take its slot, and let the victim resume when a slot
//    frees. Every parked session is resumed and completed — conservation is
//    DAOP_CHECKed by the scheduler.
//  - HAZARD-ADAPTIVE DEGRADATION: a DegradationController watches a sliding
//    window of fault-plane telemetry (hazard stall seconds, migration
//    aborts/retries) and steps the serving stack down a degradation ladder,
//    circuit-breaker style with hysteresis:
//
//        L0 normal
//        L1 disable speculative work (DAOP pre-calc, fetch-engine prefetch)
//        L2 additionally disable placement migrations (Algorithm-1 swaps,
//           decode re-allocation; demand fetches still run)
//        L3 additionally cap concurrency at half the configured bound
//        L4 additionally shed aggressively (halved deadline budget, tight
//           queue cap)
//
//    and steps back up one level at a time after a calm window.
//
// The admission rules below (deadline shedding, concurrency capping) are
// shared by the continuous-batching scheduler and the cluster router, so a
// single-node and a cluster run shed and cap by the same arithmetic.
//
// Everything here is deterministic and, with a default-constructed
// OverloadOptions, a strict no-op: no request is shed, preempted or
// degraded.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "engines/engine.hpp"

namespace daop::eval {

/// How the waiting queue orders and sheds requests.
enum class AdmissionPolicy {
  /// Strict arrival order; sheds only on queue overflow (newest rejected)
  /// or when a deadline budget is configured.
  kFifo,
  /// Newest-first service: under overload the freshest requests (whose
  /// clients are still waiting) are served and the stalest are shed first
  /// on overflow.
  kLifoShed,
  /// Earliest-deadline-first service; requests whose projected TTFT exceeds
  /// their deadline budget are shed instead of admitted, and (optionally)
  /// deadline-critical arrivals preempt the latest-deadline session.
  kDeadlineEdf,
};

const char* admission_policy_name(AdmissionPolicy policy);
/// Parses "fifo" | "lifo-shed" | "deadline-edf"; CHECK-fails with a message
/// listing the valid names otherwise.
AdmissionPolicy parse_admission_policy(const std::string& name);

/// Why a request was shed by admission control (never admitted; distinct
/// from `dropped`, which is the client abandoning after timeouts).
enum class ShedReason {
  kQueueFull,  ///< bounded queue overflowed
  kDeadline,   ///< projected TTFT exceeded the deadline budget
  kDegraded,   ///< aggressive shedding at the top of the degradation ladder
  kNodeLost,   ///< cluster plane (src/cluster): every copy of the request
               ///< was lost to node crashes and its failover retry budget
               ///< is exhausted (or no replica was left to fail over to)
};
inline constexpr int kNumShedReasons = 4;

const char* shed_reason_name(ShedReason reason);

/// Degradation-ladder levels (see the file comment). Levels are cumulative:
/// L3 implies L1 and L2's restrictions.
enum class DegradeLevel {
  kNormal = 0,
  kNoSpeculation = 1,
  kNoMigrations = 2,
  kCapConcurrency = 3,
  kShedAggressively = 4,
};

const char* degrade_level_name(DegradeLevel level);

/// The DegradationController also steps DOWN when this many migration
/// aborts landed within its window.
inline constexpr long long kDegradeAbortTrip = 4;

/// Circuit-breaker configuration for the DegradationController. Defaults
/// are disabled; `enabled = true` activates the ladder with the documented
/// thresholds.
struct DegradationOptions {
  bool enabled = false;
  /// Sliding telemetry window the trip conditions are evaluated over.
  double window_s = 5.0;
  /// Step DOWN when hazard stall seconds within the window exceed this
  /// fraction of the window length (or on kDegradeAbortTrip aborts).
  double stall_trip_fraction = 0.10;
  /// Minimum dwell time between consecutive level changes (hysteresis).
  double min_dwell_s = 1.0;
  /// Step UP one level after this long with no trip condition firing.
  double calm_window_s = 3.0;
  /// Deepest level the controller may reach.
  int max_level = static_cast<int>(DegradeLevel::kShedAggressively);

  void validate() const;
};

/// One controller level change, for spans/offline inspection.
struct DegradationEvent {
  double time = 0.0;
  int level = 0;   ///< level AFTER the change
  bool down = false;  ///< true = stepped down (degraded), false = recovered
};

/// Watches cumulative fault-plane telemetry and walks the degradation
/// ladder. Deterministic: level transitions depend only on the observed
/// (time, totals) sequence. `observe` must be called with nondecreasing
/// times (the scheduler's decision times); non-monotone inputs are clamped.
class DegradationController {
 public:
  explicit DegradationController(const DegradationOptions& options);

  /// Cumulative (monotone) telemetry totals as of simulated time `now`.
  struct Signals {
    double hazard_stall_s = 0.0;
    long long migration_aborts = 0;
    long long migration_retries = 0;
    /// Adds one session's migration aborts and retries.
    void add(const engines::EngineCounters& c) {
      migration_aborts += c.migration_aborts;
      migration_retries += c.migration_retries;
    }
  };

  /// Feeds one telemetry sample and applies at most one level change.
  void observe(double now, const Signals& totals);

  int level() const { return level_; }
  int peak_level() const { return peak_level_; }
  long long steps_down() const { return steps_down_; }
  long long steps_up() const { return steps_up_; }
  const std::vector<DegradationEvent>& events() const { return events_; }

  /// Ladder directives at the current level.
  bool no_speculation() const {
    return level_ >= static_cast<int>(DegradeLevel::kNoSpeculation);
  }
  bool no_migrations() const {
    return level_ >= static_cast<int>(DegradeLevel::kNoMigrations);
  }
  bool cap_concurrency() const {
    return level_ >= static_cast<int>(DegradeLevel::kCapConcurrency);
  }
  bool shed_aggressively() const {
    return level_ >= static_cast<int>(DegradeLevel::kShedAggressively);
  }

 private:
  struct Sample {
    double time = 0.0;
    Signals totals;
  };

  DegradationOptions options_;
  std::vector<Sample> window_;  ///< samples within [now - window_s, now]
  int level_ = 0;
  int peak_level_ = 0;
  double last_change_ = 0.0;
  double last_hot_ = 0.0;
  double last_now_ = 0.0;
  long long steps_down_ = 0;
  long long steps_up_ = 0;
  std::vector<DegradationEvent> events_;
};

/// First-token budget a request is held to: its own override when > 0,
/// else the configured default. 0 = no deadline.
inline double deadline_budget(double request_budget_s,
                              double default_budget_s) {
  return request_budget_s > 0.0 ? request_budget_s : default_budget_s;
}

/// Deadline-shed verdict for a request about to be admitted. `budget_s`
/// (0 = none) runs from the ORIGINAL `arrival`, so retries and failovers
/// never extend it; `projected` is the projected first-token time. Returns
/// std::nullopt to admit, kDeadline when the projection lands past the
/// deadline, and kDegraded when only the halved budget that
/// `shed_aggressively` applies rejects it.
std::optional<ShedReason> deadline_shed(double arrival, double budget_s,
                                        double projected,
                                        bool shed_aggressively);

/// Concurrency bound in force: `max_concurrent`, halved (never below 1)
/// while the degradation ladder caps concurrency.
inline int effective_concurrency(int max_concurrent, bool cap_concurrency) {
  return cap_concurrency ? std::max(1, max_concurrent / 2) : max_concurrent;
}

/// Overload-control configuration carried by the scheduler / serving
/// options. Default-constructed it is fully disabled.
struct OverloadOptions {
  AdmissionPolicy admission = AdmissionPolicy::kFifo;
  /// Bounded waiting queue: when more requests than this are waiting at an
  /// admission decision, the overflow is shed (`fifo`/`deadline-edf` shed
  /// the newest arrivals, `lifo-shed` the stalest). 0 = unbounded.
  int queue_capacity = 0;
  /// Per-request time-to-first-token deadline budget, measured from the
  /// ORIGINAL arrival. A request whose projected TTFT (admission wait +
  /// `service_estimate_s`) exceeds it is shed instead of admitted. 0 = no
  /// deadline (no deadline shedding, no EDF ordering signal beyond FIFO).
  double deadline_s = 0.0;
  /// Projected admission-to-first-token service time used by the deadline
  /// shed rule (operators calibrate it from a calm-run prefill estimate).
  double service_estimate_s = 0.0;
  /// Allow `deadline-edf` to preempt the latest-deadline in-flight session
  /// for a deadline-critical arrival (each session is preempted at most
  /// once, so preemption can never livelock).
  bool preempt = false;
  DegradationOptions degrade;

  /// True when any option deviates from the strict no-op defaults.
  bool enabled() const;
  void validate() const;
};

/// Scheduler-side overload telemetry, aggregated over one run.
struct OverloadStats {
  long long shed_by_reason[kNumShedReasons] = {};
  long long shed_total = 0;
  long long preemptions = 0;
  long long preempt_resumes = 0;
  long long degrade_steps_down = 0;
  long long degrade_steps_up = 0;
  int degrade_final_level = 0;
  int degrade_peak_level = 0;
  std::vector<DegradationEvent> degrade_events;
};

}  // namespace daop::eval
