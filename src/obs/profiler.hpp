// Post-run profiler: collects per-run critical-path attribution, the
// overlap ledger, per-step breakdowns and per-(layer, expert) utilization
// heatmap data, and renders a deterministic profile report (JSON or aligned
// text tables).
//
// Strictly passive, like the rest of the observability plane: the profiler
// only ever reads already-recorded timeline intervals and already-computed
// times at session teardown, so a profiled run is bit-identical (times,
// energy, counters, trace bytes) to an unprofiled one — locked down by
// tests/obs/obs_determinism_test.cpp. The only side effect of attaching a
// profiler is that sessions turn on Timeline interval recording, which by
// contract never changes a scheduling decision.
//
// Report consumers: `daop_cli --profile-out`, `bench_fig8_timeline`, and
// scripts/perf_gate.py (which compares the JSON against checked-in
// baselines in bench/baselines/ with per-metric tolerances).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/attribution.hpp"
#include "sim/timeline.hpp"

namespace daop::obs {

/// One expert execution noted by a session (passive: times are the already
/// scheduled start/end). Feeds the per-layer × per-expert heatmap.
struct ExpertExec {
  int layer = 0;
  int expert = 0;
  bool on_gpu = false;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Aggregated utilization of one (layer, expert, device) cell.
struct HeatmapCell {
  int layer = 0;
  int expert = 0;
  bool on_gpu = false;
  long long execs = 0;
  double busy_s = 0.0;
};

/// One decode step's window and attribution.
struct ProfileStep {
  double start_s = 0.0;
  double end_s = 0.0;
  AttrBreakdown attr;
};

/// Everything the profiler derived from one run (or one shared-timeline
/// serving window, for which the per-phase/step/heatmap detail is absent).
struct RunProfile {
  std::string label;
  long long request = -1;
  double start_s = 0.0;
  double prefill_end_s = 0.0;
  double end_s = 0.0;
  /// Whole-window attribution ([start_s, end_s]).
  AttrBreakdown total;
  /// Prefill/decode phase splits; only when has_phases (per-run records).
  bool has_phases = false;
  AttrBreakdown prefill;
  AttrBreakdown decode;
  /// Per-decode-step attribution, capped at Options::max_steps_per_run.
  std::vector<ProfileStep> steps;
  int steps_omitted = 0;
  /// Sorted by (layer, expert, gpu-before-cpu).
  std::vector<HeatmapCell> heatmap;
  /// Engine counters as (name, value), in a fixed order
  /// (engines::counter_profile_metrics).
  std::vector<std::pair<std::string, double>> counters;
};

class Profiler {
 public:
  struct Options {
    /// Keep at most this many per-step breakdowns per run; further steps
    /// are still attributed in the phase totals but omitted from `steps`
    /// (steps_omitted counts them).
    int max_steps_per_run = 512;
  };

  Profiler() = default;
  explicit Profiler(const Options& options) : options_(options) {}

  /// Records one finished single-sequence run. `intervals` / `hazards` are
  /// the run timeline's recorded state; `step_windows` are the decode
  /// tokens' [start, end) windows in scheduling order.
  void record_run(std::string label, long long request,
                  const std::vector<sim::Interval>& intervals,
                  const std::vector<sim::Interval>& hazards, double start_s,
                  double prefill_end_s, double end_s,
                  const std::vector<std::pair<double, double>>& step_windows,
                  const std::vector<ExpertExec>& expert_execs,
                  std::vector<std::pair<std::string, double>> counters);

  /// Records a whole shared-timeline window (continuous-batching serving),
  /// where per-session phases/steps are not attributable to one run.
  void record_window(std::string label,
                     const std::vector<sim::Interval>& intervals,
                     const std::vector<sim::Interval>& hazards, double t0,
                     double t1);

  const std::vector<RunProfile>& runs() const { return runs_; }
  bool empty() const { return runs_.empty(); }

  /// Attribution summed over all recorded runs' whole windows.
  AttrBreakdown aggregate() const;

  /// Deterministic JSON report (schema "daop-profile/1"): per-run windows,
  /// attribution, steps, heatmap and counters plus the aggregate. Two
  /// exports of the same state are byte-identical.
  std::string to_json() const;

  /// Aligned text tables (common/table): aggregate attribution + overlap
  /// ledger, then one row per run.
  std::string to_text() const;

 private:
  Options options_;
  std::vector<RunProfile> runs_;
};

}  // namespace daop::obs
