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
#include <cstddef>
#include <optional>
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
    const std::size_t i = idx(layer, expert);
    std::size_t r = find_row(session);
    if (r == kNoRow) r = acquire_row(session);
    ++rows_[r].counts[i];
    ++total_[i];
  }
  void unpin(int layer, int expert, long long session) {
    const std::size_t i = idx(layer, expert);
    const std::size_t r = find_row(session);
    DAOP_CHECK_MSG(r != kNoRow && rows_[r].counts[i] > 0,
                   "unpin without matching pin: layer "
                       << layer << " expert " << expert << " session "
                       << session);
    --rows_[r].counts[i];
    --total_[i];
  }
  /// Drops every pin `session` holds (called when a session closes) and
  /// returns its count row to the pool.
  void unpin_session(long long session);

  /// Total pin count on (layer, expert) across all sessions.
  int pin_count(int layer, int expert) const {
    return total_[idx(layer, expert)];
  }
  /// The sessions currently pinning (layer, expert), ascending by id —
  /// refusal diagnostics use this to name the contending sessions.
  std::vector<long long> pinning_sessions(int layer, int expert) const;
  /// Total pin count across every (layer, expert) and every session — the
  /// scheduler DAOP_CHECKs this returns to zero at shutdown (no session may
  /// leak pins through preemption or close).
  int total_pin_count() const;
  /// Pins on (layer, expert) held by sessions other than `session`.
  int other_pins(int layer, int expert, long long session) const {
    const std::size_t i = idx(layer, expert);
    if (total_[i] == 0) return 0;
    const std::size_t r = find_row(session);
    return total_[i] - (r == kNoRow ? 0 : rows_[r].counts[i]);
  }
  /// True when any session other than `session` pins (layer, expert).
  bool pinned_by_other(int layer, int expert, long long session) const {
    return other_pins(layer, expert, session) > 0;
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
  double weight_ready(int layer, int expert) const {
    return weight_ready_[idx(layer, expert)];
  }
  void set_weight_ready(int layer, int expert, double t) {
    double& slot = weight_ready_[idx(layer, expert)];
    slot = std::max(slot, t);
  }

 private:
  std::size_t idx(int layer, int expert) const {
    DAOP_CHECK(layer >= 0 && layer < placement_.n_layers());
    DAOP_CHECK(expert >= 0 && expert < placement_.n_experts());
    return static_cast<std::size_t>(layer) *
               static_cast<std::size_t>(placement_.n_experts()) +
           static_cast<std::size_t>(expert);
  }

  /// One session's nested pin counts, one per (layer, expert) cell. A row
  /// belongs to its session from the first pin until unpin_session(), then
  /// returns to the pool zeroed (`session` empty) for the next session, so
  /// rows are allocated only when more sessions than ever before hold pins
  /// at once.
  struct Row {
    std::optional<long long> session;
    std::vector<int> counts;
  };
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

  /// The row of `session`, or kNoRow when it pins nothing. The last hit is
  /// cached: a session pins, queries and releases in runs.
  std::size_t find_row(long long session) const {
    if (last_row_ < rows_.size() && rows_[last_row_].session == session) {
      return last_row_;
    }
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (rows_[r].session == session) return last_row_ = r;
    }
    return kNoRow;
  }
  /// Claims a pooled row (or a new one) for `session`, which has none.
  std::size_t acquire_row(long long session);

  Placement placement_;
  /// Per-(layer, expert) pin count summed over every session.
  std::vector<int> total_;
  std::vector<Row> rows_;
  mutable std::size_t last_row_ = kNoRow;
  std::vector<double> weight_ready_;
};

}  // namespace daop::cache
