// Shared-placement arbitration for multi-session serving.
//
// Under continuous batching, every in-flight session schedules against ONE
// device placement — the expert cache is a device resource, not a
// per-request one. The PlacementArbiter owns that shared Placement and adds
// the two pieces of state individual sessions cannot see:
//
//  - reference-counted pins: a session pins the GPU experts it actively
//    uses, and a swap/eviction requested by one session is REFUSED when its
//    victim is pinned by another — one request's migration can never evict
//    an expert a concurrent request is computing with. Refusals are counted
//    (EngineCounters::pin_refusals) and the requester degrades exactly as it
//    would for any failed migration.
//  - weight-arrival gates: when a session's transfer lands an expert on the
//    GPU, the arrival time is published so a DIFFERENT session scheduling
//    the same expert waits for the weights instead of using them before
//    they exist.
//
// The arbiter is deterministic and single-threaded like the rest of the
// simulation; "concurrent" sessions are interleaved by the scheduler, never
// by threads.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "cache/placement.hpp"
#include "common/check.hpp"

namespace daop::cache {

class PlacementArbiter {
 public:
  explicit PlacementArbiter(Placement initial);

  Placement& placement() { return placement_; }
  const Placement& placement() const { return placement_; }

  /// Pins (layer, expert) for `session`. Pins nest: each pin() needs a
  /// matching unpin() — or a final unpin_session() — to release. Inline,
  /// like pinned_by_other: every decode step of every shared session pins
  /// and releases its working set.
  void pin(int layer, int expert, long long session) {
    Holders& holders = pins_[idx(layer, expert)];
    const auto it = holder_of(holders, session);
    if (it != holders.end()) {
      ++it->second;
    } else {
      holders.emplace_back(session, 1);
    }
  }
  void unpin(int layer, int expert, long long session) {
    Holders& holders = pins_[idx(layer, expert)];
    const auto it = holder_of(holders, session);
    DAOP_CHECK_MSG(it != holders.end(),
                   "unpin without matching pin: layer "
                       << layer << " expert " << expert << " session "
                       << session);
    if (--it->second == 0) {
      *it = holders.back();
      holders.pop_back();
    }
  }
  /// Drops every pin `session` holds (called when a session closes).
  void unpin_session(long long session);

  /// Total pin count on (layer, expert) across all sessions.
  int pin_count(int layer, int expert) const;
  /// Per-expert introspection: total pin count on `expert` summed across
  /// every layer and session (an expert id names one weight set per layer).
  int pin_count(int expert) const;
  /// The sessions currently pinning (layer, expert), ascending by id —
  /// refusal diagnostics use this to name the contending sessions.
  std::vector<long long> pinning_sessions(int layer, int expert) const;
  /// Total pin count across every (layer, expert) and every session — the
  /// scheduler DAOP_CHECKs this returns to zero at shutdown (no session may
  /// leak pins through preemption or close).
  int total_pin_count() const;
  /// True when any session other than `session` pins (layer, expert).
  bool pinned_by_other(int layer, int expert, long long session) const {
    for (const auto& [holder, count] : pins_[idx(layer, expert)]) {
      if (holder != session) return true;
    }
    return false;
  }

  /// Swap arbitration: performs `expert_out` -> `expert_in` on `layer` and
  /// returns true, unless `expert_out` is pinned by a session other than
  /// the requester — then the placement is untouched and false is returned
  /// (the caller counts a pin refusal and degrades like any failed
  /// migration). A session's own pins never block its request.
  bool try_swap(int layer, int expert_in, int expert_out, long long session);

  /// Eviction arbitration with the same pin rule as try_swap.
  bool try_evict(int layer, int expert, long long session);

  /// Weight-arrival gate: experts become usable only once their transfer
  /// lands, and that holds across sessions. set_weight_ready publishes (and
  /// only ever advances) the arrival time; weight_ready reads it (0 when
  /// the weights were never in flight).
  double weight_ready(int layer, int expert) const;
  void set_weight_ready(int layer, int expert, double t);

 private:
  std::size_t idx(int layer, int expert) const {
    DAOP_CHECK_GE(layer, 0);
    DAOP_CHECK_LT(layer, placement_.n_layers());
    DAOP_CHECK_GE(expert, 0);
    DAOP_CHECK_LT(expert, placement_.n_experts());
    return static_cast<std::size_t>(layer) *
               static_cast<std::size_t>(placement_.n_experts()) +
           static_cast<std::size_t>(expert);
  }

  /// The (session, nested count) holders of one (layer, expert) cell. A
  /// cell rarely has more than a few holders (one per in-flight session
  /// computing with the expert), so a flat list scanned linearly beats a
  /// hash map, and once warm it never allocates: a released holder is
  /// removed by swap-with-last and the cell keeps its capacity. Holder
  /// order is arbitrary; every query is order-independent or sorts.
  using Holders = std::vector<std::pair<long long, int>>;

  /// The holder entry of `session` in a cell, or end() when it pins nothing.
  static Holders::iterator holder_of(Holders& holders, long long session) {
    return std::find_if(
        holders.begin(), holders.end(),
        [session](const auto& h) { return h.first == session; });
  }

  Placement placement_;
  /// Per-(layer, expert) holders; every listed count is positive.
  std::vector<Holders> pins_;
  std::vector<double> weight_ready_;
};

}  // namespace daop::cache
