// Bridges engine results into the observability plane: one call records a
// RunResult's timing, energy and counters as Prometheus-style metric
// families in a MetricsRegistry. Recording is write-only — nothing in the
// engines reads the registry back, so metrics can never influence a
// simulated schedule.
#pragma once

#include <utility>
#include <vector>

#include "engines/engine.hpp"
#include "obs/metrics.hpp"

namespace daop::engines {

/// Records one run (timing, tokens, energy, counters) into `reg`. `labels`
/// (typically {{"engine", r.engine}}) is attached to every series; some
/// families add their own dimension on top (device, result, phase).
void record_run_metrics(obs::MetricsRegistry& reg, const RunResult& r,
                        const obs::Labels& labels);

/// Overload that labels every series with the run's engine name.
void record_run_metrics(obs::MetricsRegistry& reg, const RunResult& r);

/// Counter-only subset, shared with the batch and serving paths (which
/// aggregate counters without a per-sequence RunResult): one series per
/// kCounterFields row that names a metric family. `overload_plane` picks
/// the overload-plane rows instead of the others.
void record_counter_metrics(obs::MetricsRegistry& reg,
                            const EngineCounters& c, const obs::Labels& labels,
                            bool overload_plane = false);

/// Flattens EngineCounters into (name, value) pairs for the profiler's
/// report: one entry per kCounterFields row, in declaration order, so a
/// profile's counters section is complete by construction.
std::vector<std::pair<std::string, double>> counter_profile_metrics(
    const EngineCounters& c);

}  // namespace daop::engines
