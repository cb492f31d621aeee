// Event-timeline scheduler for the performance-simulation plane.
//
// The paper's speedups are op-overlap phenomena at millisecond scale (GPU
// compute vs CPU expert execution vs PCIe transfers), so the simulator is an
// event timeline, not a cycle-accurate model. Each hardware resource
// serializes the work scheduled on it; cross-resource parallelism falls out
// of scheduling ops with explicit ready times (dependencies).
//
// Hot-path design (docs/PERFORMANCE.md): schedule() is called millions of
// times per sweep, so it is defined inline here as one code path: the input
// and monotonicity checks, the max/add arithmetic, and two branches into
// private out-of-line hooks — fault perturbation (only with a fault model
// attached and the op's start inside its live window, one inline compare)
// and interval recording (only while recording is on). Tags are
// interned TagIds against a per-timeline string pool (zero string work when
// interval recording is off — the common case) and recorded intervals live
// in structure-of-arrays columns with chunked reserve growth. The classic
// std::vector<Interval> view stays available via
// intervals()/hazard_intervals(), materialized on demand for the cold
// consumers (attribution, trace export, gantt, profiler).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "sim/fault_model.hpp"
#include "sim/res.hpp"

namespace daop::sim {

/// Interned tag handle into a Timeline's TagPool. 0 is the empty tag.
using TagId = std::uint32_t;
inline constexpr TagId kNoTag = 0;

/// Per-timeline string pool: each distinct tag string is stored once and
/// addressed by TagId. Interning only happens while interval recording is
/// on, so untagged/unrecorded scheduling never touches strings at all.
class TagPool {
 public:
  TagPool();

  /// Returns the id for `s`, adding it to the pool on first sight.
  /// The empty string always interns to kNoTag.
  TagId intern(std::string_view s);

  /// The pooled string for `id` ("" for kNoTag). Valid for the pool's
  /// lifetime; ids are never invalidated.
  const std::string& view(TagId id) const;

  /// Number of distinct strings pooled (including the empty tag).
  std::size_t size() const { return strings_.size(); }

  void clear();

 private:
  std::vector<std::string> strings_;
  // Sorted (string, id) index; tag vocabularies are small (dozens of
  // distinct op names), so binary search beats hashing here and supports
  // heterogeneous string_view lookup without temporary strings.
  std::vector<std::pair<std::string, TagId>> index_;
};

/// One scheduled occupancy interval on a resource (compatibility view; the
/// Timeline's native storage is IntervalSoA).
struct Interval {
  Res res;
  double start = 0.0;
  double end = 0.0;
  std::string tag;  ///< e.g. "L5 expert3 exec", used by the gantt renderer
};

/// Structure-of-arrays interval storage: one column per Interval field,
/// tags as interned ids. Columns always have equal length.
struct IntervalSoA {
  std::vector<Res> res;
  std::vector<double> start;
  std::vector<double> end;
  std::vector<TagId> tag;

  std::size_t size() const { return res.size(); }
  bool empty() const { return res.empty(); }
  void clear();
  /// Reserves capacity in all columns at once.
  void reserve(std::size_t n);
  /// Appends one interval, growing all columns by arena-style chunks
  /// (doubling from a 1024-interval floor) so steady-state appends never
  /// reallocate mid-chunk.
  void push_back(Res r, double s, double e, TagId t);
};

class Timeline {
 public:
  Timeline();

  /// Schedules work of `duration` seconds on resource `r` that may not begin
  /// before `ready` (its dependencies' completion). Returns the finish time.
  /// The op starts at max(ready, resource busy-until). When a fault model is
  /// attached the op's duration is perturbed by the active hazard scenario;
  /// `ready` and `duration` must be finite and non-negative so perturbed ops
  /// can never move a resource's busy-until backwards.
  ///
  /// The string_view overload interns the tag only while interval recording
  /// is on; with recording off (the default) it is exactly the untagged hot
  /// path — no string is ever constructed, hashed, or copied.
  [[gnu::always_inline]] double schedule(Res r, double ready,
                                         double duration,
                                         std::string_view tag = {}) {
    return schedule(r, ready, duration,
                    (record_ && !tag.empty()) ? tags_.intern(tag) : kNoTag);
  }
  /// Pre-interned tag variant for callers that schedule the same op name in
  /// a tight loop (see intern_tag()). Defined below the class. Both
  /// overloads are always inlined: the live-window test would otherwise tip
  /// the compiler into calling them out of line from the decode loop.
  [[gnu::always_inline]] double schedule(Res r, double ready, double duration,
                                         TagId tag);

  /// Interns `tag` into this timeline's pool up front so a loop can call
  /// the TagId overload of schedule().
  TagId intern_tag(std::string_view tag) { return tags_.intern(tag); }

  /// Earliest time new work could start on `r`.
  double busy_until(Res r) const;

  /// Start time of the most recently scheduled op (0 before any schedule()).
  /// Lets callers derive exact span boundaries for tracing without
  /// re-deriving the resource queueing decision.
  double last_start() const { return last_start_; }

  /// Total busy seconds accumulated on `r`.
  double busy_time(Res r) const;

  /// Latest finish time across all resources (0 when empty).
  double span() const;

  /// Compatibility view of the recorded intervals: materialized (and cached)
  /// from the SoA columns with tags formatted from the pool. The reference
  /// is invalidated by the next schedule()/reset(). Cold-path only —
  /// attribution, trace export, gantt and the profiler read this once per
  /// finished run; hot consumers should use intervals_soa().
  const std::vector<Interval>& intervals() const;

  /// Hazard-stall sub-intervals (the fault-injected tail of each perturbed
  /// op), recorded only while interval recording is on. Rendered as a
  /// dedicated "Hazards" track by the Chrome trace export. Same
  /// materialized-view contract as intervals().
  const std::vector<Interval>& hazard_intervals() const;

  /// Native structure-of-arrays interval storage (tags as TagIds; resolve
  /// through tag_pool().view()).
  const IntervalSoA& intervals_soa() const { return soa_; }
  const IntervalSoA& hazard_intervals_soa() const { return hazard_soa_; }
  const TagPool& tag_pool() const { return tags_; }

  /// Number of recorded intervals (without materializing the compat view).
  std::size_t interval_count() const { return soa_.size(); }

  /// Enables interval recording (tags + gantt). Off by default: long decode
  /// simulations only need aggregate busy times.
  void set_record_intervals(bool on) { record_ = on; }

  /// Attaches a hazard-injection fault model; every subsequently scheduled
  /// op is perturbed through it, so all engines price hazards identically
  /// (ops starting outside the model's live window skip the call, which
  /// would return {0, 0}). nullptr (the default) restores exact unperturbed
  /// behaviour.
  void set_fault_model(FaultModel* fm) { fault_ = fm; }

  /// Total hazard delay injected into scheduled ops (stalls, retries,
  /// contention and throttle slowdowns), in seconds.
  double hazard_stall_s() const { return hazard_stall_s_; }

  /// Link-level transfer retries injected by the fault model.
  long long hazard_transfer_retries() const {
    return hazard_transfer_retries_;
  }

  /// Clears all scheduled state and hazard telemetry; keeps the attached
  /// fault model (it is configuration, not state) and the interned tag
  /// vocabulary (ids stay stable across reset).
  void reset();

 private:
  /// schedule()'s input-check failure, entered only when an input is bad:
  /// always throws CheckError, naming `ready` when it is the bad input and
  /// `duration` otherwise.
  [[noreturn]] DAOP_COLD_ static void reject_input(double ready,
                                                   double duration);
  /// Fault hook (out of line), entered for an op of positive duration only
  /// when its start lies in the attached model's live window for `r`
  /// (outside it the model provably returns {0, 0} and draws nothing):
  /// perturbs the op that starts at `start`, accounts the hazard telemetry,
  /// records the hazard tail while recording is on, and returns the
  /// perturbed duration.
  double perturb(Res r, double start, double duration);
  /// Recording hook (out of line), entered only while recording is on:
  /// appends one busy interval.
  void record(Res r, double start, double end, TagId tag);

  std::array<double, kNumRes> busy_until_{};
  std::array<double, kNumRes> busy_time_{};
  IntervalSoA soa_;
  IntervalSoA hazard_soa_;
  TagPool tags_;
  TagId hazard_tag_ = kNoTag;  ///< lazily interned "hazard stall"
  // Materialized compatibility views, rebuilt on demand after mutation.
  mutable std::vector<Interval> compat_;
  mutable std::vector<Interval> hazard_compat_;
  mutable bool compat_dirty_ = false;
  mutable bool hazard_compat_dirty_ = false;
  double last_start_ = 0.0;
  bool record_ = false;
  FaultModel* fault_ = nullptr;
  double hazard_stall_s_ = 0.0;
  long long hazard_transfer_retries_ = 0;
};

inline double Timeline::schedule(Res r, double ready, double duration,
                                 TagId tag) {
  // Negative, NaN or infinite inputs would silently corrupt a resource's
  // busy-until state for every later op, so they are hard errors — this is
  // what lets fault-perturbed ops be trusted downstream.
  if (!(std::isfinite(ready) && ready >= 0.0) ||
      !(std::isfinite(duration) && duration >= 0.0)) [[unlikely]] {
    reject_input(ready, duration);
  }
  const int i = static_cast<int>(r);
  const double start = std::max(ready, busy_until_[i]);
  last_start_ = start;
  if (fault_ != nullptr && duration > 0.0 && fault_->live(r, start)) {
    duration = perturb(r, start, duration);
  }
  const double end = start + duration;
  DAOP_CHECK_GE(end, busy_until_[i]);  // time never moves backwards
  busy_until_[i] = end;
  busy_time_[i] += duration;
  if (record_ && duration > 0.0) record(r, start, end, tag);
  return end;
}

/// Renders the recorded intervals of a timeline as an ASCII gantt chart over
/// [t0, t1], one lane per resource (the paper's Fig. 8 visualization).
std::string render_gantt(const Timeline& tl, double t0, double t1,
                         int width = 100);

}  // namespace daop::sim
