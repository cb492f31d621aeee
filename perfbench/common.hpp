// Shared pieces of the benchmark: the fixed model/platform/dataset, the
// traffic constants, the metric catalogue, request plans, output checks and
// process probes. Workloads live in workloads.cpp, the per-layer traced pass
// in traced.cpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cache/placement.hpp"
#include "data/routing_trace.hpp"
#include "data/workload.hpp"
#include "model/config.hpp"
#include "model/op_costs.hpp"
#include "sim/cost_model.hpp"
#include "sim/device.hpp"

namespace perfbench {

using namespace daop;

// ---- Fixed traffic ---------------------------------------------------------
// Derived once with `perfbench --derive` (seed 1, the probes are described in
// README.md) from the calm saturation of one node, then frozen here so that a
// change which speeds up simulated DAOP is measured on the parent's traffic.
namespace traffic {
/// Seed of the arrival times and request lengths of every serving plan.
/// The run's --seed varies the routing traces (which experts each token
/// selects) and the calibration, never the traffic shape, so a workload's
/// latency tails are compared on one schedule of arrivals.
inline constexpr std::uint64_t kPlanSeed = 1;
/// paper-decode: closed loop, one client at batch 1 (Fig. 9 / Table IV).
inline constexpr int kDecodeSeqs = 100;
inline constexpr int kDecodePrompt = 256;
inline constexpr int kDecodeGen = 512;

/// Serving plans: prompt/gen ranges of the CLI's serve defaults.
inline constexpr int kMinPrompt = 64;
inline constexpr int kMaxPrompt = 320;
inline constexpr int kMinGen = 48;
inline constexpr int kMaxGen = 256;
inline constexpr int kSlotsPerNode = 4;

/// Node calm saturation: a 64-request burst on one 4-slot node drains at
/// this rate (requests / makespan).
inline constexpr double kNodeSaturationRps = 0.0233;
/// Calm first-token service time (TTFT p90 at 1/8 saturation).
inline constexpr double kServiceEstimateS = 4.8;

/// Client latency limits for goodput. TTFT: the stock `ttft-burn` target.
/// TPOT: 1.25x the TPOT p90 of the saturated burst probe.
inline constexpr double kTtftLimitS = 10.0;
inline constexpr double kTpotLimitS = 1.46;

/// serve-overload: open-loop Poisson at 2x node saturation.
inline constexpr int kOverloadRequests = 300;
inline constexpr double kOverloadRps = 2.0 * kNodeSaturationRps;
inline constexpr int kOverloadQueueCap = 8;
inline constexpr int kPriorityEvery = 4;
/// Deadline-critical budget: tighter than the default, but above the
/// service estimate so admission can still meet it.
inline constexpr double kPriorityDeadlineS = 0.75 * kTtftLimitS;

/// cluster-chaos: 4 nodes at 2.25x single-node saturation (56% of the
/// healthy cluster's capacity, 75% after the crash). Between 2x and 2.5x the
/// TPOT percentiles sit inside one concurrency regime on every seed; at 3x
/// the survivors' queues grow without bound after the crash.
inline constexpr int kClusterNodes = 4;
inline constexpr int kClusterRequests = 250;
inline constexpr double kClusterRps = 2.25 * kNodeSaturationRps;
inline constexpr int kCrashNode = 1;
/// Flash crowd: requests kBurstAt .. kBurstAt+kBurstSize-1 all arrive with
/// request kBurstAt, filling every node's slots; node 1 crashes
/// kCrashDelayS later, so it dies with four sessions mid-decode (each past
/// its first checkpoint) on every seed.
inline constexpr int kBurstAt = kClusterRequests / 2;
inline constexpr int kBurstSize = 12;
inline constexpr double kCrashDelayS = 20.0;
/// Health probes every second and two missed probes eject, so the crash is
/// detected within 2 s. A failover waits 2 s, so it reaches a live node:
/// with the router's default 10 ms backoff every retry chases the dead node
/// (which looks least loaded) and the request is shed.
inline constexpr double kProbeIntervalS = 1.0;
inline constexpr int kEjectAfter = 2;
inline constexpr double kFailoverBackoffS = 2.0;
inline constexpr int kFailoverBudget = 2;
/// Sessions snapshot every 4 decode steps; a quarter of writes are torn.
inline constexpr int kCheckpointEverySteps = 4;
inline constexpr double kTornWriteProb = 0.25;
/// Brownouts: every node draws one 120 s window at 2x slowdown in the first
/// 5%..30% of the arrival span, before the flash crowd (a brownout ejection
/// of node 1 at crash time would hide the crash from the health checker).
inline constexpr double kBrownoutDurationS = 120.0;
inline constexpr double kBrownoutSlowdown = 2.0;
/// Time-series window: the stock SLO rules look back 2 (fast) and 6 (slow)
/// windows, so at ~0.05 req/s a 10 s window lets a handful of crash victims
/// dominate the fast window.
inline constexpr double kTseriesWindowS = 10.0;
}  // namespace traffic

// ---- Fixed system under test ----------------------------------------------
struct System {
  model::ModelConfig model = model::mixtral_8x7b();
  sim::PlatformSpec platform = sim::a6000_i9_platform();
  data::WorkloadSpec dataset = data::c4();
  double ecr = 0.469;
  int calibration_seqs = 32;
  sim::CostModel cost_model{platform};
  model::OpCosts costs{model, cost_model};
};
const System& sys();

/// §IV-A calibrated placement for `seed` (the library's helper).
cache::Placement calibrate(std::uint64_t seed);

// ---- Metric catalogue -------------------------------------------------------
struct MetricDef {
  const char* name;
  const char* unit;
};
/// End-to-end metrics, emitted by every workload with --trace 0.
const std::vector<MetricDef>& end_to_end_metrics();
/// Per-layer metrics, emitted by every workload with --trace 1.
const std::vector<MetricDef>& per_layer_metrics();

/// Name -> value, filled by a run and checked against a catalogue on emit.
class MetricValues {
 public:
  void set(const std::string& name, double value);
  /// Sets every catalogue metric under `prefix` (e.g. "cluster.") to 0: the
  /// workload does not route through that layer.
  void zero_layer(const std::vector<MetricDef>& catalogue,
                  const std::string& prefix);
  bool has(const std::string& name) const { return v_.count(name) != 0; }
  double at(const std::string& name) const;
  const std::map<std::string, double>& all() const { return v_; }
  /// True when both hold the same names with bit-identical values.
  bool bit_identical(const MetricValues& o) const;

 private:
  std::map<std::string, double> v_;
};

// ---- Output checks ----------------------------------------------------------
class Checks {
 public:
  /// Records one check; a failure is printed to stderr and counted.
  void expect(bool ok, const std::string& what);
  int failed() const { return failed_; }
  int run() const { return run_; }

 private:
  int failed_ = 0;
  int run_ = 0;
};

// ---- Request plans ----------------------------------------------------------
struct PlannedRequest {
  long long id = 0;
  double arrival = 0.0;
  double deadline_s = 0.0;  ///< 0 = the scheduler's default budget
  data::SequenceTrace trace;
};

/// Open-loop Poisson plan. Arrival gaps and lengths are drawn from the
/// fixed traffic::kPlanSeed, in the library serving harness's draw order
/// (gap, prompt length, gen length per request); the routing traces come
/// from `trace_seed`. With trace_seed == kPlanSeed the plan equals the one
/// run_serving_eval serves for that seed.
std::vector<PlannedRequest> make_plan(std::uint64_t trace_seed, int n,
                                      double rate_rps, int priority_every,
                                      double priority_deadline_s);

/// FNV-1a over every routing score of the traces: setups must agree.
std::uint64_t fingerprint(const std::vector<const data::SequenceTrace*>& ts);

// ---- Process probes ---------------------------------------------------------
using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
/// User + system CPU seconds of this process so far.
double cpu_seconds();

/// Wall seconds of a fixed reference kernel that stresses the host the way
/// the simulator does: it copies 20k small float vectors (one allocation
/// each) and takes a branchy top-2 over each, six times. It calls no library
/// code, so no change to the program moves it. See README.md, "Wall-clock
/// noise": on a shared host it slows together with the simulator.
double reference_kernel_s();
/// The kernel's wall time on an uncontended 2.1 GHz Xeon vCPU. One
/// reference second is a wall second on a host that runs the kernel in
/// this time.
inline constexpr double kReferenceNominalS = 0.008;

double peak_rss_mib();
int thread_count();

}  // namespace perfbench
