// Continuous-batching serving scheduler (iteration-level scheduling).
//
// The sequential server runs each request to completion on a private
// timeline, so concurrent requests never contend for PCIe or the CPU pool
// and decode bubbles can never be filled by another request's work. This
// scheduler instead admits Poisson arrivals up to a concurrency bound onto
// ONE shared sim::Timeline and interleaves decode steps across the in-flight
// engines::SequenceSessions: at every scheduling decision it either admits
// the head of the FIFO queue (when a slot is free and the admission time is
// no later than every in-flight session's frontier) or advances the
// least-advanced session by one token. All sessions schedule against one
// cache::PlacementArbiter-owned expert placement — the cache is a device
// resource, not a per-request one — with reference-counted pins so one
// request's migration can never evict an expert a concurrent request is
// computing with (see cache/arbiter.hpp).
//
// Deterministic and single-threaded like the rest of the simulation:
// "concurrent" sessions are interleaved by this scheduler, never by threads.
#pragma once

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "cache/arbiter.hpp"
#include "cache/expert_cache.hpp"
#include "data/routing_trace.hpp"
#include "engines/engine.hpp"
#include "engines/session.hpp"
#include "eval/overload.hpp"
#include "obs/timeseries.hpp"

namespace daop::eval {

/// Index of the slot that frees first (`free_slots` holds free times and
/// must be non-empty). Shared with cluster::ClusterRouter, like
/// least_advanced().
inline std::size_t earliest_slot(const std::vector<double>& free_slots) {
  return static_cast<std::size_t>(
      std::min_element(free_slots.begin(), free_slots.end()) -
      free_slots.begin());
}

/// The in-flight session to step next, as {index, ready time}: the
/// least-advanced one, ties to the earliest admitted (`active` is in
/// admission order). Empty: {active.size(), +inf}.
template <class Sessions>
std::pair<std::size_t, double> least_advanced(const Sessions& active) {
  std::pair<std::size_t, double> best{
      active.size(), std::numeric_limits<double>::infinity()};
  for (std::size_t i = 0; i < active.size(); ++i) {
    const double r = active[i].session->ready_time();
    if (r < best.second) best = {i, r};
  }
  return best;
}

class ContinuousBatchingScheduler {
 public:
  struct Options {
    /// Maximum simultaneously in-flight sessions (admission bound).
    int max_concurrent = 4;
    /// Client-side queue-wait timeout / retry / backoff, with the same
    /// semantics as the sequential server (ServingOptions): a request whose
    /// admission would start more than `request_timeout_s` after its
    /// (re-)arrival is abandoned and retries after a backoff, up to
    /// `max_request_retries` re-queues; then it is dropped without ever
    /// occupying a slot. 0 = clients wait forever.
    double request_timeout_s = 0.0;
    int max_request_retries = 0;
    double retry_backoff_s = 0.5;
    /// Overload-control plane (eval/overload.hpp): admission policies,
    /// bounded queue, deadline shedding, preemption, hazard-adaptive
    /// degradation. Default-constructed it is disabled and admission is
    /// plain FIFO.
    OverloadOptions overload;
    /// Dynamic expert-cache policy (cache/expert_cache.hpp). Policy
    /// `frozen` (the default) constructs no cache and leaves every session
    /// on the prefill-frozen placement — bit-identical to the pre-cache
    /// scheduler. A dynamic policy shares ONE ExpertCache across all
    /// sessions of this scheduler, scoring unpinned GPU slots by aggregate
    /// demand and re-migrating during decode.
    cache::ExpertCacheOptions cache;
    /// Receives scheduler-level overload instants (sheds, degradation
    /// ladder steps); session-level spans come from the engine's own
    /// tracer. nullptr (the default) disables them.
    obs::SpanTracer* tracer = nullptr;
    /// Windowed time-series recorder (obs/timeseries.hpp), recorded on
    /// channel 0. Strictly passive: consulted only AFTER each scheduling
    /// decision, behind a null-pointer gate, so attaching one never changes
    /// the run. nullptr (the default) records nothing.
    obs::TimeSeriesRecorder* tseries = nullptr;
  };

  struct Request {
    long long id = 0;
    double arrival = 0.0;  ///< client arrival time (serving clock)
    /// Per-request deadline budget override for the overload plane: this
    /// request's first token is due `deadline_s` after `arrival`. 0 uses
    /// OverloadOptions::deadline_s; ignored while the plane is disabled. A
    /// TIGHTER budget than the in-flight sessions' makes the request
    /// deadline-critical (it is served first under `deadline-edf`,
    /// preempting if allowed).
    double deadline_s = 0.0;
    data::SequenceTrace trace;
  };

  /// One request's client-observed outcome. Exactly one of
  /// served/dropped/shed holds for every enqueued request (conservation is
  /// DAOP_CHECKed).
  struct Outcome {
    long long id = 0;
    double arrival = 0.0;
    bool served = false;
    bool shed = false;          ///< rejected by admission control
    ShedReason shed_reason = ShedReason::kQueueFull;  ///< valid when shed
    double start = 0.0;         ///< admission (service start) time
    double end = 0.0;           ///< completion time (served only)
    long long retries = 0;      ///< client re-queues before admission/drop
    long long preemptions = 0;  ///< times this request's session was parked
    engines::RunResult result;  ///< session result (served only); times are
                                ///< relative to `start`
  };

  /// The engine, timeline, and initial placement must outlive the
  /// scheduler. The scheduler copies `initial` into its arbiter; every
  /// session it opens schedules on `timeline` and arbitrates that copy.
  ContinuousBatchingScheduler(engines::Engine& engine, sim::Timeline& timeline,
                              const cache::Placement& initial,
                              const Options& options);

  /// Enqueues one request. Requests must be enqueued in nondecreasing
  /// arrival order (FIFO admission is by queue order).
  void enqueue(Request request);

  /// Drives every enqueued request to served, dropped, or shed and returns
  /// the outcomes sorted by request id.
  std::vector<Outcome> run();

  const cache::PlacementArbiter& arbiter() const { return arbiter_; }
  /// The shared dynamic cache, or nullptr under policy `frozen`.
  const cache::ExpertCache* expert_cache() const { return cache_.get(); }
  /// Overload telemetry for the completed run (all-zero when the overload
  /// plane is disabled).
  const OverloadStats& overload_stats() const { return overload_stats_; }

 private:
  struct Pending {
    Request request;
    double eff_arrival = 0.0;  ///< arrival, pushed forward by retries
    int attempts = 0;
  };
  struct Active {
    long long id = 0;
    double arrival = 0.0;
    double start = 0.0;
    double deadline = 0.0;  ///< absolute first-token deadline (0 = none)
    long long retries = 0;
    long long preemptions = 0;
    /// The request's routing trace, moved out of the pending queue at
    /// admission. The session borrows it, so it lives behind a pointer that
    /// active_/parked_ moves never relocate, and is declared before
    /// `session` so it is destroyed after it.
    std::unique_ptr<data::SequenceTrace> trace;
    std::unique_ptr<engines::SequenceSession> session;
  };

  engines::Engine& engine_;
  sim::Timeline& tl_;
  cache::PlacementArbiter arbiter_;
  /// Shared dynamic expert cache; null under policy `frozen` so every
  /// SessionEnv::cache stays nullptr (the exact pre-cache no-op).
  std::unique_ptr<cache::ExpertCache> cache_;
  Options options_;
  std::deque<Pending> pending_;
  std::vector<Active> active_;
  /// Preempted sessions waiting for a slot to resume in, in park order.
  std::deque<Active> parked_;
  /// Times at which currently-unoccupied slots became free (size is always
  /// max_concurrent - active_.size(); a parked session holds no slot — its
  /// preemptor does).
  std::vector<double> free_slots_;
  std::vector<Outcome> outcomes_;
  OverloadStats overload_stats_;
};

}  // namespace daop::eval
