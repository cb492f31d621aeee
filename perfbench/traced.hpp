#pragma once

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Runs the per-layer probes every workload shares (data, calibration,
/// engines, sim, recovery) on the workload's inputs and records them into
/// `out`. Returns the bare engine's wall per prompt+gen token (us), the
/// base of eval.cb_overhead_us_per_tok.
double run_shared_probes(Workload& w, MetricValues& out, Checks& checks);

}  // namespace perfbench
