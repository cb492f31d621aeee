// Observability plane — time-series recorder (daop::obs).
//
// A TimeSeriesRecorder turns the end-of-run MetricsRegistry view into a
// windowed one over SIMULATED time: harness event loops (continuous-batching
// scheduler, cluster router, recovery plane) record counters/gauges/latency
// observations into per-channel live registries as decisions resolve, and
// the recorder seals fixed-width windows on a global grid [k*w, (k+1)*w) by
// snapshot/delta (see MetricsSnapshot). Channels map to nodes (plus a
// "cluster" channel for router-level client-observed series); an aggregate
// across channels is computed at export time.
//
// The recorder is strictly passive: it is consulted only through
// null-pointer / enabled() gates after scheduling decisions are made, so
// attaching one can never change a simulated timeline — tests enforce
// byte-identical results and metric exports with and without it.
//
// Window attribution: hooks call advance(channel, t) with the decision time
// BEFORE recording the events that resolve at t. Decision times are monotone
// per channel, so every recording lands in the grid window containing its
// decision time. Observations whose logical timestamp differs from the
// decision time that surfaced them (e.g. a session whose last token landed
// slightly before the scheduler noticed) are attributed to the decision
// window — slop is bounded by one scheduling decision, never a full run.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

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

class TimeSeriesRecorder {
 public:
  /// `channels` names each recording channel (e.g. {"node0","node1",
  /// "cluster"}). With disabled options the channel list is not even stored.
  TimeSeriesRecorder(const TimeSeriesOptions& options,
                     std::vector<std::string> channels);

  bool enabled() const { return options_.enabled(); }
  double window_s() const { return options_.window_s; }
  int n_channels() const { return static_cast<int>(channels_.size()); }
  const std::string& channel_name(int ch) const;

  // ---- Recording (all no-ops when disabled) ----
  // Values land in the currently-open window of the channel; callers
  // advance() to the decision time first. Recording into an existing
  // series without labels allocates nothing (see MetricsRegistry).

  void count(int ch, std::string_view name, std::string_view help,
             double d = 1.0, const Labels& labels = {});
  /// Feeds a cumulative external total (e.g. Timeline::hazard_stall_s());
  /// the recorder increments an internal counter by the delta since the
  /// last call for the same series. Totals must be non-decreasing.
  void count_total(int ch, std::string_view name, std::string_view help,
                   double total, const Labels& labels = {});
  void gauge_set(int ch, std::string_view name, std::string_view help,
                 double v, const Labels& labels = {});
  /// Latency observation into a default-bucket histogram.
  void observe(int ch, std::string_view name, std::string_view help, double v,
               const Labels& labels = {});
  /// Merges a pre-bucketed histogram (its own bounds) into the open window.
  void merge_hist(int ch, std::string_view name, std::string_view help,
                  const HistogramData& data, const Labels& labels = {});

  /// Seals every grid window of `ch` that ends at or before `now`.
  /// Non-monotone times clamp (the channel clock never moves backwards).
  void advance(int ch, double now);

  /// Appends to the causal event log (for the incident correlator and the
  /// export's events array). Does not need advance() first.
  void record_event(double time, int ch, std::string kind,
                    std::string detail);

  /// Seals the final (possibly partial) window of every channel at
  /// max(channel clock, end) and freezes the recorder. Harnesses call this
  /// once with the run makespan; later calls are no-ops.
  void finalize(double end);
  bool finalized() const { return finalized_; }

  // ---- Read side (valid after finalize) ----

  const std::vector<SeriesWindow>& windows(int ch) const;
  const std::vector<TimeSeriesEvent>& events() const { return events_; }
  /// Max window count across channels (channels seal consecutively from 0).
  long long n_windows() const;
  /// Cross-channel aggregate per grid index: counters and gauges sum,
  /// histograms merge. Gauge sums are the natural fleet reading for depth /
  /// occupancy gauges (the dominant use); per-node level gauges remain
  /// available on their own channels.
  std::vector<SeriesWindow> aggregate() const;

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
  struct Channel {
    std::string name;
    MetricsRegistry live;
    MetricsSnapshot prev;
    /// count_total state, keyed by name + serialized labels.
    std::map<std::string, double, std::less<>> last_totals;
    std::string key_scratch;  ///< reused count_total key storage
    long long next_index = 0;  ///< next grid window to seal
    double clock = 0.0;
    std::vector<SeriesWindow> windows;
  };

  Channel& chan(int ch);
  void seal(Channel& c, double end);

  TimeSeriesOptions options_;
  std::vector<std::string> channels_;
  /// unique_ptr because MetricsRegistry is pinned (owns a mutex).
  std::vector<std::unique_ptr<Channel>> state_;
  std::vector<TimeSeriesEvent> events_;
  bool finalized_ = false;
};

}  // namespace daop::obs
