// Observability plane — time-series recorder (daop::obs).
//
// A TimeSeriesRecorder turns the end-of-run MetricsRegistry view into a
// windowed one over SIMULATED time: harness event loops (continuous-batching
// scheduler, cluster router, recovery plane) record counters/gauges/latency
// observations per channel as decisions resolve, and the recorder seals
// fixed-width windows on a global grid [k*w, (k+1)*w). Channels map to nodes
// (plus a "cluster" channel for router-level client-observed series), and
// an aggregate sums them.
//
// Write side. Each channel interns every (family, label set) into a dense
// slot the first time it is declared, with the same name, kind and bucket
// checks MetricsRegistry applies. Counter and gauge values live in one
// vector of doubles, histograms in one vector of HistogramData. Hot callers
// resolve a SeriesHandle once and record through it; the string-keyed calls
// resolve through the same slot table on every call. A declared series
// stays out of every window until its first write (the registry's birth
// rule: an add_total series is born by its first positive delta).
//
// Seal. Sealing a window appends the row of cumulative values to flat
// per-channel arrays. The read side turns consecutive rows into window
// deltas exactly as a registry snapshot diff would: counters subtract
// (CHECKed monotone), gauges keep their last value, histograms subtract
// bucket-wise. finalize() builds the cross-channel aggregate (what SLO
// alerting reads); a channel's own windows are built on their first read.
//
// The recorder is single-threaded (every harness that feeds one runs its
// event loop on one thread) and strictly passive: it is consulted only
// through null-pointer / enabled() gates after scheduling decisions are
// made, so attaching one can never change a simulated timeline — tests
// enforce byte-identical results and metric exports with and without it.
//
// Window attribution: hooks call advance(channel, t) with the decision time
// BEFORE recording the events that resolve at t. Decision times are monotone
// per channel, so every recording lands in the grid window containing its
// decision time. Observations whose logical timestamp differs from the
// decision time that surfaced them (e.g. a session whose last token landed
// slightly before the scheduler noticed) are attributed to the decision
// window — slop is bounded by one scheduling decision, never a full run.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace daop::obs {

struct TimeSeriesOptions {
  /// Window width in simulated seconds; <= 0 disables the recorder (every
  /// call becomes a no-op and nothing is allocated beyond the struct).
  double window_s = 0.0;

  bool enabled() const { return window_s > 0.0; }
  void validate() const;
};

/// One sealed window of one channel: the delta of everything recorded with
/// a decision time in [start, end). The final window of a run may be
/// partial (end < (index+1)*window_s).
struct SeriesWindow {
  long long index = 0;  ///< global grid index; windows are consecutive from 0
  double start = 0.0;
  double end = 0.0;
  MetricsSnapshot delta;
};

/// One entry in the causal event log consumed by the incident correlator:
/// crashes, health ejections/readmissions, degradation-ladder moves,
/// loss-episode lifecycle, shed decisions.
struct TimeSeriesEvent {
  double time = 0.0;
  int channel = 0;
  std::string kind;    ///< e.g. "crash", "eject", "degrade", "shed"
  std::string detail;  ///< human-readable, deterministic
};

/// A series resolved once to its (channel, slot). Recording through a
/// handle is a few checks and one store. A default handle, or one
/// declared on a disabled recorder, records nothing.
struct SeriesHandle {
  int ch = -1;
  int slot = -1;
};

class TimeSeriesRecorder {
 public:
  using Kind = MetricsSnapshot::Kind;

  /// `channels` names each recording channel (e.g. {"node0","node1",
  /// "cluster"}). With disabled options the channel list is not even stored.
  TimeSeriesRecorder(const TimeSeriesOptions& options,
                     std::vector<std::string> channels);

  bool enabled() const { return options_.enabled(); }
  double window_s() const { return options_.window_s; }
  int n_channels() const { return static_cast<int>(channels_.size()); }
  const std::string& channel_name(int ch) const;

  // ---- Declaration (returns a default handle when disabled) ----
  // Interns the series into the channel's slot table on first use; later
  // declarations of the same series return the same slot. A family keeps
  // the help text of its first declaration. Declaring does not make the
  // series visible: it enters the windows with its first write.

  SeriesHandle counter(int ch, std::string_view name, std::string_view help,
                       const Labels& labels = {});
  SeriesHandle gauge(int ch, std::string_view name, std::string_view help,
                     const Labels& labels = {});
  /// A default-latency-bucket histogram (default_latency_buckets()).
  SeriesHandle histogram(int ch, std::string_view name, std::string_view help,
                         const Labels& labels = {});

  // ---- Recording through handles (all no-ops when disabled) ----
  // Values land in the currently-open window of the handle's channel;
  // callers advance() to the decision time first. Allocates nothing.

  void add(SeriesHandle h, double d = 1.0) {
    if (!enabled()) return;
    Channel& c = chan(h.ch);
    write(c, h.slot, Kind::kCounter);
    DAOP_CHECK_MSG(d >= 0.0, "counters only move forward");
    c.values[static_cast<std::size_t>(h.slot)] += d;
  }
  /// Feeds a cumulative external total (e.g. Timeline::hazard_stall_s());
  /// the counter grows by the delta since the last total fed to the same
  /// series. Totals must be non-decreasing; the series is born by its
  /// first positive delta.
  void add_total(SeriesHandle h, double total) {
    if (!enabled()) return;
    DAOP_CHECK_MSG(!finalized_, "recording into a finalized recorder");
    Channel& c = chan(h.ch);
    Slot& s = slot_of(c, h.slot, Kind::kCounter);
    DAOP_CHECK_MSG(total >= s.last_total - 1e-12,
                   "cumulative total '" << s.family << s.key
                                        << "' moved backwards");
    if (total > s.last_total) {
      add(h, total - s.last_total);
      s.last_total = total;
    }
  }
  void set(SeriesHandle h, double v) {
    if (!enabled()) return;
    Channel& c = chan(h.ch);
    write(c, h.slot, Kind::kGauge);
    c.values[static_cast<std::size_t>(h.slot)] = v;
  }
  void observe(SeriesHandle h, double v) {
    if (!enabled()) return;
    Channel& c = chan(h.ch);
    const Slot& s = write(c, h.slot, Kind::kHistogram);
    c.hists[static_cast<std::size_t>(s.hist)].observe(v);
  }

  // ---- String-keyed recording (cold callers; same slot table) ----

  void count(int ch, std::string_view name, std::string_view help,
             double d = 1.0, const Labels& labels = {});
  void gauge_set(int ch, std::string_view name, std::string_view help,
                 double v, const Labels& labels = {});
  /// Latency observation into a default-bucket histogram.
  void observe(int ch, std::string_view name, std::string_view help, double v,
               const Labels& labels = {});
  /// Merges a pre-bucketed histogram (its own bounds) into the open window.
  /// An empty histogram neither declares nor writes anything.
  void merge_hist(int ch, std::string_view name, std::string_view help,
                  const HistogramData& data, const Labels& labels = {});

  /// Seals every grid window of `ch` that ends at or before `now`.
  /// Non-monotone times clamp (the channel clock never moves backwards).
  void advance(int ch, double now) {
    if (!enabled() || finalized_) return;
    Channel& c = chan(ch);
    if (now > c.clock) c.clock = now;
    if (static_cast<double>(c.next_index + 1) * options_.window_s <= c.clock) {
      seal_through_clock(c);
    }
  }

  /// Appends to the causal event log (for the incident correlator and the
  /// export's events array). Does not need advance() first.
  void record_event(double time, int ch, std::string kind,
                    std::string detail);

  /// Seals the final (possibly partial) window of every channel at
  /// max(channel clock, end), builds the read side and freezes the
  /// recorder. Harnesses call this once with the run makespan; later calls
  /// are no-ops.
  void finalize(double end);
  bool finalized() const { return finalized_; }

  // ---- Read side (valid after finalize) ----
  // aggregate() is built by finalize(); a channel's windows on their first
  // read. Both are cached.

  const std::vector<SeriesWindow>& windows(int ch) const;
  const std::vector<TimeSeriesEvent>& events() const { return events_; }
  /// Max window count across channels (channels seal consecutively from 0).
  long long n_windows() const;
  /// Cross-channel aggregate per grid index: counters and gauges sum,
  /// histograms merge. Gauge sums are the natural fleet reading for depth /
  /// occupancy gauges (the dominant use); per-node level gauges remain
  /// available on their own channels. Empty when disabled.
  const std::vector<SeriesWindow>& aggregate() const;

  /// Union of series in a window list: {family -> (kind, help, keys)}.
  /// Used by exporters to emit dense per-series arrays across windows.
  struct SeriesIndex {
    std::string family;
    MetricsSnapshot::Kind kind = MetricsSnapshot::Kind::kCounter;
    std::vector<std::string> keys;  ///< serialized label sets, sorted
  };
  static std::vector<SeriesIndex> series_index(
      const std::vector<SeriesWindow>& windows);

  /// Replays an end-of-run registry's totals into channel `ch` at time `t`
  /// (counters counted, gauges set, histograms merged). Lets batch modes
  /// without a streaming event loop (speed, compare, timeline) still export
  /// a — degenerate, single-window — daop-tseries series of their final
  /// metrics. Call before finalize().
  void record_registry_totals(int ch, const MetricsRegistry& reg, double t);

 private:
  /// One interned (family, label set) of a channel.
  struct Slot {
    std::string family;
    Kind kind = Kind::kCounter;
    std::string help;
    std::string key;  ///< serialized label set
    Labels labels;
    int family_slot = 0;  ///< first slot of the family (kind, help, buckets)
    int hist = -1;        ///< index into Channel::hists (histograms only)
    long long born = -1;  ///< window of the first write; -1 = never written
    double last_total = 0.0;  ///< add_total state
  };
  /// One sealed window: its end and where its row starts in the channel's
  /// flat arrays.
  struct Seal {
    double end = 0.0;
    std::size_t n_values = 0;   ///< slots at seal time
    std::size_t values_at = 0;  ///< in sealed_values
    std::size_t counts_at = 0;  ///< in sealed_counts
    std::size_t hists_at = 0;   ///< in sealed_totals / sealed_sums
  };
  struct Channel {
    std::vector<Slot> slots;
    /// family + serialized label set -> slot; family -> its first slot.
    std::map<std::string, int, std::less<>> series;
    std::map<std::string, int, std::less<>> families;
    std::string key_scratch;  ///< reused lookup key storage
    /// Live cumulative values, one per slot (unused for histogram slots).
    std::vector<double> values;
    std::vector<HistogramData> hists;
    /// Per histogram: where its bucket counts start within a sealed row.
    std::vector<std::size_t> count_off;
    std::size_t row_counts = 0;  ///< bucket counts per row, all histograms
    /// Sealed rows: the values of each seal's slots, then per histogram its
    /// bucket counts, total and sum, all flat and in seal order.
    std::vector<Seal> seals;
    std::vector<double> sealed_values;
    std::vector<long long> sealed_counts;
    std::vector<long long> sealed_totals;
    std::vector<double> sealed_sums;
    long long next_index = 0;  ///< next grid window to seal
    double clock = 0.0;
    /// Built from the rows on the first windows() read after finalize().
    mutable std::vector<SeriesWindow> windows;
    mutable bool windows_built = false;
  };

  Channel& chan(int ch) {
    DAOP_CHECK_MSG(ch >= 0 && ch < n_channels(),
                   "tseries channel " << ch << " out of range");
    return state_[static_cast<std::size_t>(ch)];
  }
  static Slot& slot_of(Channel& c, int slot, Kind kind) {
    DAOP_CHECK_MSG(slot >= 0 && static_cast<std::size_t>(slot) <
                                    c.slots.size(),
                   "tseries handle slot " << slot << " out of range");
    Slot& s = c.slots[static_cast<std::size_t>(slot)];
    DAOP_CHECK_MSG(s.kind == kind,
                   "tseries series '" << s.family << s.key
                                      << "' written as the wrong kind");
    return s;
  }
  /// The slot a write of `kind` goes to, born into the open window.
  Slot& write(Channel& c, int slot, Kind kind) {
    DAOP_CHECK_MSG(!finalized_, "recording into a finalized recorder");
    Slot& s = slot_of(c, slot, kind);
    if (s.born < 0) s.born = c.next_index;
    return s;
  }

  SeriesHandle declare(int ch, std::string_view name, std::string_view help,
                       Kind kind, const std::vector<double>* bounds,
                       const Labels& labels);
  void seal_through_clock(Channel& c);
  void seal(Channel& c, double end);
  bool open_window_empty(const Channel& c) const;
  /// Writes window `k`'s delta of `c` into `into`: assigned when `merge`
  /// is false, otherwise summed (counters, gauges) or merged (histograms)
  /// onto what `into` holds, as the cross-channel aggregate does.
  void add_delta(const Channel& c, std::size_t k, bool merge,
                 MetricsSnapshot& into) const;
  std::vector<SeriesWindow> build_aggregate() const;

  TimeSeriesOptions options_;
  std::vector<std::string> channels_;
  std::vector<Channel> state_;
  std::vector<TimeSeriesEvent> events_;
  std::vector<SeriesWindow> aggregate_;  ///< built by finalize()
  bool finalized_ = false;
};

}  // namespace daop::obs
