// Hazard-injection fault plane for the performance simulator.
//
// The engines normally schedule against a perfectly calm device: PCIe never
// stalls, the CPU pool is never stolen by a co-running app, the GPU never
// throttles, and expert weight loads never fail. Real on-device deployment
// (the paper's target platform) is dominated by exactly these perturbations,
// so this module injects them deterministically: a FaultModel attached to a
// sim::Timeline perturbs every scheduled op according to a HazardScenario,
// and exposes an engine-visible transient expert-load failure stream. All
// draws flow from an explicit seed through daop::Rng, so a hazard run is as
// bit-reproducible as a calm one. With no FaultModel attached (the default)
// the timeline behaves exactly as before — the fault plane is a strict
// no-op when off — and with one attached, an op whose start lies outside
// its resource's live window costs one compare (FaultModel::live).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/res.hpp"

namespace daop::sim {

/// Base backoff in seconds before a failed transfer is retried; doubles per
/// consecutive retry.
inline constexpr double kTransferRetryBackoffS = 1e-3;

/// Configuration of one hazard environment. All fields default to "no
/// hazard"; a default-constructed scenario is disabled.
struct HazardScenario {
  // ---- PCIe link hazards (both DMA directions) ----
  /// Probability that a transfer hits a link stall (bus contention,
  /// host-memory pressure).
  double pcie_stall_prob = 0.0;
  /// Mean stall length in seconds (exponentially distributed).
  double pcie_stall_mean_s = 0.0;
  /// Probability that a transfer attempt fails outright and must be
  /// retried (ECC replay, DMA error). Retries re-pay the full transfer
  /// plus an exponential backoff (kTransferRetryBackoffS); the attempt
  /// after `max_transfer_retries` always succeeds so runs terminate.
  double pcie_fail_prob = 0.0;
  int max_transfer_retries = 3;

  // ---- CPU-pool contention (co-running app steals memory bandwidth) ----
  /// Length of one contention cycle; 0 disables CPU contention.
  double cpu_contention_period_s = 0.0;
  /// Contended window at the start of each cycle.
  double cpu_contention_window_s = 0.0;
  /// Factor (>= 1) by which CPU ops starting inside a window slow down.
  double cpu_contention_slowdown = 1.0;

  // ---- GPU thermal throttling ----
  /// Length of one throttle cycle; 0 disables GPU throttling.
  double gpu_throttle_period_s = 0.0;
  /// Throttled window at the start of each cycle.
  double gpu_throttle_window_s = 0.0;
  /// Factor (>= 1) by which GPU ops starting inside a window slow down.
  double gpu_throttle_slowdown = 1.0;

  // ---- Transient expert weight-load failures ----
  /// Probability that one expert weight-load attempt fails transiently
  /// (engines decide how to react: retry, abort, or fall back to CPU).
  double expert_load_fail_prob = 0.0;

  // ---- Checkpoint-durability hazards (src/recovery) ----
  /// Probability that a checkpoint write is torn: only a prefix of the
  /// frame lands, so restore-side validation must reject it by length.
  double ckpt_torn_write_prob = 0.0;
  /// Probability that a durable checkpoint suffers silent single-byte
  /// corruption, rejected at restore by the frame checksum.
  double ckpt_corrupt_prob = 0.0;

  // ---- Node-scoped cluster faults (src/cluster) ----
  // These describe faults of a whole replica, not of one op. The FaultModel
  // samples them once per (scenario, seed) into NodeFaults; the cluster
  // router reads crash/link draws directly, while the brownout window also
  // perturbs this node's GPU/PCIe ops through perturb(). All default to "no
  // fault", so every pre-cluster scenario is bit-identical.
  /// Probability that this node crashes during the run (in-flight sessions
  /// lost; the node never recovers).
  double node_crash_prob = 0.0;
  /// Crash time is drawn uniformly from [node_crash_min_s, node_crash_max_s].
  double node_crash_min_s = 0.0;
  double node_crash_max_s = 0.0;
  /// Probability of one sustained brownout window on this node (sustained
  /// slowdown of its GPU stream and both PCIe DMA directions).
  double node_brownout_prob = 0.0;
  /// Brownout start is drawn uniformly from [min_start, max_start]; the
  /// window then lasts node_brownout_duration_s.
  double node_brownout_min_start_s = 0.0;
  double node_brownout_max_start_s = 0.0;
  double node_brownout_duration_s = 0.0;
  /// Factor (>= 1) by which GPU/PCIe ops starting inside the window slow
  /// down.
  double node_brownout_slowdown = 1.0;
  /// Probability that the router->node link is degraded for the whole run.
  double link_degrade_prob = 0.0;
  /// Dispatch latency added to every request routed over a degraded link.
  double link_degrade_latency_s = 0.0;

  /// True when any hazard can actually fire.
  bool enabled() const;

  /// CHECKs every field's range (probabilities in [0,1], slowdowns >= 1,
  /// windows within their periods, non-negative times/retries).
  void validate() const;
};

/// Named scenario presets scaled by `intensity` in [0, 1] (0 = disabled):
/// "none", "pcie" (stalls + transfer failures), "cpu" (pool contention),
/// "thermal" (GPU throttling), "expert-load" (transient load failures),
/// "all" (every op-level hazard at once — node-scoped and checkpoint
/// faults are NOT included, so pre-cluster chaos runs stay bit-identical).
/// Node-scoped presets for the cluster plane: "node-crash",
/// "node-brownout", "link-degrade", and "cluster" (all three node faults
/// together). Checkpoint-durability presets for the recovery plane:
/// "ckpt-torn", "ckpt-corrupt", and "ckpt" (both).
HazardScenario make_hazard_scenario(const std::string& kind,
                                    double intensity);

/// The preset names accepted by make_hazard_scenario.
const std::vector<std::string>& hazard_scenario_kinds();

/// Deterministic hazard sampler. One FaultModel is attached to a Timeline
/// (Timeline::set_fault_model) and shared by every run of one experiment;
/// the draw sequence depends only on (seed, order of schedule calls), so a
/// fixed seed reproduces every perturbation bit-for-bit.
class FaultModel {
 public:
  /// Validates `scenario` and derives the deterministic streams from
  /// `seed`.
  FaultModel(const HazardScenario& scenario, std::uint64_t seed);

  const HazardScenario& scenario() const { return scenario_; }
  bool enabled() const { return enabled_; }

  /// Extra delay injected into one scheduled op.
  struct Perturbation {
    double extra_s = 0.0;  ///< added to the op's duration (>= 0)
    int retries = 0;       ///< link-level transfer retries included
  };

  /// Samples the perturbation for an op of `duration` seconds starting at
  /// `start` on resource `r`. Consumes random draws only for PCIe ops;
  /// contention/throttle windows are a fixed (seed-phased) schedule.
  Perturbation perturb(Res r, double start, double duration);

  /// Half-open range [lo, hi) of op start times on one resource.
  struct Window {
    double lo = 0.0;
    double hi = 0.0;
  };
  /// The live window of `r`, fixed at construction: for every `start`
  /// outside it, perturb(r, start, d) returns {0, 0} and consumes no draw.
  /// Empty when the model is disabled or no hazard touches `r`; unbounded
  /// when a draw-consuming or periodic hazard does (PCIe stalls or
  /// failures, CPU contention, GPU throttling); otherwise this node's
  /// brownout window [brownout_start_s, brownout_end_s) for the GPU stream
  /// and both PCIe directions.
  Window live_window(Res r) const {
    return live_[static_cast<std::size_t>(r)];
  }
  /// True when `start` lies in r's live window, i.e. when perturb() might
  /// perturb the op or draw. Timeline::schedule calls perturb() only then.
  bool live(Res r, double start) const {
    const Window& w = live_[static_cast<std::size_t>(r)];
    return start >= w.lo && start < w.hi;
  }

  /// Engine hook: whether the next expert weight-load attempt fails
  /// transiently. Independent stream from perturb().
  bool expert_load_fails();

  /// Checkpoint-store hooks, on their own stream (fork 5) so enabling
  /// checkpoint hazards never shifts an op-level or node-level draw. Each
  /// consumes a draw only when its probability is positive.
  bool checkpoint_write_torn();
  bool checkpoint_corrupted();
  /// Raw entropy for placing the corrupted byte (always draws).
  std::uint64_t checkpoint_entropy();

  /// Cursor over the streams a resumed session consumes mid-run. Saving the
  /// cursor into a checkpoint and restoring it into a fresh FaultModel of
  /// the same (scenario, seed) continues the hazard sequence exactly where
  /// the suspended run left off — the core of bit-identical warm restart.
  struct StreamCursor {
    Rng::State transfer;
    Rng::State load;
  };
  StreamCursor stream_cursor() const {
    return StreamCursor{transfer_rng_.save_state(), load_rng_.save_state()};
  }
  void set_stream_cursor(const StreamCursor& c) {
    transfer_rng_.load_state(c.transfer);
    load_rng_.load_state(c.load);
  }

  /// Node-scoped fault draws, resolved once at construction from a stream
  /// independent of the op-level hazards (so attaching node faults never
  /// changes a pre-cluster perturbation sequence). The cluster router reads
  /// crash/link fields directly; an active brownout window additionally
  /// slows this node's GPU/PCIe ops through perturb().
  struct NodeFaults {
    bool crash = false;
    double crash_time_s = 0.0;  ///< valid when crash
    bool brownout = false;
    double brownout_start_s = 0.0;  ///< valid when brownout
    double brownout_end_s = 0.0;
    double brownout_slowdown = 1.0;
    bool link_degraded = false;
    double link_latency_s = 0.0;  ///< valid when link_degraded
  };
  const NodeFaults& node_faults() const { return node_; }

  /// True when `t` falls inside this node's sampled brownout window.
  bool in_brownout(double t) const {
    return node_.brownout && t >= node_.brownout_start_s &&
           t < node_.brownout_end_s;
  }

 private:
  HazardScenario scenario_;
  bool enabled_ = false;
  Rng transfer_rng_;
  Rng load_rng_;
  Rng ckpt_rng_;
  double cpu_phase_s_ = 0.0;  ///< window offset within the CPU cycle
  double gpu_phase_s_ = 0.0;  ///< window offset within the GPU cycle
  NodeFaults node_;
  std::array<Window, kNumRes> live_{};  ///< see live_window()
};

}  // namespace daop::sim
