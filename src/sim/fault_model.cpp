#include "sim/fault_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace daop::sim {
namespace {

/// True when a periodic hazard with this cycle can fire at all.
bool cycles(double period, double window) {
  return period > 0.0 && window > 0.0;
}

/// True when `t` falls inside the active window of a periodic hazard whose
/// cycle starts are shifted by `phase`.
bool in_window(double t, double period, double window, double phase) {
  if (!cycles(period, window)) return false;
  const double x = std::fmod(t + phase, period);
  return x < window;
}

}  // namespace

bool HazardScenario::enabled() const {
  return pcie_stall_prob > 0.0 || pcie_fail_prob > 0.0 ||
         (cpu_contention_period_s > 0.0 && cpu_contention_window_s > 0.0 &&
          cpu_contention_slowdown > 1.0) ||
         (gpu_throttle_period_s > 0.0 && gpu_throttle_window_s > 0.0 &&
          gpu_throttle_slowdown > 1.0) ||
         expert_load_fail_prob > 0.0 || ckpt_torn_write_prob > 0.0 ||
         ckpt_corrupt_prob > 0.0 || node_crash_prob > 0.0 ||
         (node_brownout_prob > 0.0 && node_brownout_duration_s > 0.0 &&
          node_brownout_slowdown > 1.0) ||
         (link_degrade_prob > 0.0 && link_degrade_latency_s > 0.0);
}

void HazardScenario::validate() const {
  DAOP_CHECK_MSG(pcie_stall_prob >= 0.0 && pcie_stall_prob <= 1.0,
                 "pcie_stall_prob must be in [0,1], got " << pcie_stall_prob);
  DAOP_CHECK_MSG(pcie_fail_prob >= 0.0 && pcie_fail_prob <= 1.0,
                 "pcie_fail_prob must be in [0,1], got " << pcie_fail_prob);
  DAOP_CHECK_MSG(expert_load_fail_prob >= 0.0 && expert_load_fail_prob <= 1.0,
                 "expert_load_fail_prob must be in [0,1], got "
                     << expert_load_fail_prob);
  DAOP_CHECK_MSG(pcie_stall_mean_s >= 0.0,
                 "pcie_stall_mean_s must be >= 0, got " << pcie_stall_mean_s);
  DAOP_CHECK_MSG(max_transfer_retries >= 0,
                 "max_transfer_retries must be >= 0, got "
                     << max_transfer_retries);
  DAOP_CHECK_MSG(ckpt_torn_write_prob >= 0.0 && ckpt_torn_write_prob <= 1.0,
                 "ckpt_torn_write_prob must be in [0,1], got "
                     << ckpt_torn_write_prob);
  DAOP_CHECK_MSG(ckpt_corrupt_prob >= 0.0 && ckpt_corrupt_prob <= 1.0,
                 "ckpt_corrupt_prob must be in [0,1], got "
                     << ckpt_corrupt_prob);
  DAOP_CHECK_MSG(cpu_contention_period_s >= 0.0 &&
                     cpu_contention_window_s >= 0.0 &&
                     cpu_contention_window_s <= cpu_contention_period_s,
                 "CPU contention window must fit its period (window "
                     << cpu_contention_window_s << ", period "
                     << cpu_contention_period_s << ")");
  DAOP_CHECK_MSG(cpu_contention_slowdown >= 1.0,
                 "cpu_contention_slowdown must be >= 1, got "
                     << cpu_contention_slowdown);
  DAOP_CHECK_MSG(gpu_throttle_period_s >= 0.0 &&
                     gpu_throttle_window_s >= 0.0 &&
                     gpu_throttle_window_s <= gpu_throttle_period_s,
                 "GPU throttle window must fit its period (window "
                     << gpu_throttle_window_s << ", period "
                     << gpu_throttle_period_s << ")");
  DAOP_CHECK_MSG(gpu_throttle_slowdown >= 1.0,
                 "gpu_throttle_slowdown must be >= 1, got "
                     << gpu_throttle_slowdown);
  DAOP_CHECK_MSG(node_crash_prob >= 0.0 && node_crash_prob <= 1.0,
                 "node_crash_prob must be in [0,1], got " << node_crash_prob);
  DAOP_CHECK_MSG(node_crash_min_s >= 0.0 &&
                     node_crash_max_s >= node_crash_min_s,
                 "node crash window must satisfy 0 <= min <= max (min "
                     << node_crash_min_s << ", max " << node_crash_max_s
                     << ")");
  DAOP_CHECK_MSG(node_brownout_prob >= 0.0 && node_brownout_prob <= 1.0,
                 "node_brownout_prob must be in [0,1], got "
                     << node_brownout_prob);
  DAOP_CHECK_MSG(node_brownout_min_start_s >= 0.0 &&
                     node_brownout_max_start_s >= node_brownout_min_start_s,
                 "node brownout start window must satisfy 0 <= min <= max "
                 "(min "
                     << node_brownout_min_start_s << ", max "
                     << node_brownout_max_start_s << ")");
  DAOP_CHECK_MSG(node_brownout_duration_s >= 0.0,
                 "node_brownout_duration_s must be >= 0, got "
                     << node_brownout_duration_s);
  DAOP_CHECK_MSG(node_brownout_slowdown >= 1.0,
                 "node_brownout_slowdown must be >= 1, got "
                     << node_brownout_slowdown);
  DAOP_CHECK_MSG(link_degrade_prob >= 0.0 && link_degrade_prob <= 1.0,
                 "link_degrade_prob must be in [0,1], got "
                     << link_degrade_prob);
  DAOP_CHECK_MSG(link_degrade_latency_s >= 0.0,
                 "link_degrade_latency_s must be >= 0, got "
                     << link_degrade_latency_s);
}

HazardScenario make_hazard_scenario(const std::string& kind,
                                    double intensity) {
  DAOP_CHECK_MSG(intensity >= 0.0 && intensity <= 1.0,
                 "hazard intensity must be in [0,1], got " << intensity);
  // Validate the kind before the calm-intensity early return so a typo'd
  // preset never silently runs a calm-device experiment.
  {
    const std::vector<std::string>& kinds = hazard_scenario_kinds();
    if (std::find(kinds.begin(), kinds.end(), kind) == kinds.end()) {
      std::string valid;
      for (const std::string& k : kinds) {
        if (!valid.empty()) valid += ", ";
        valid += k;
      }
      DAOP_CHECK_MSG(false, "unknown hazard scenario '"
                                << kind << "' (valid kinds: " << valid
                                << ")");
    }
  }
  HazardScenario sc;
  if (kind == "none" || intensity == 0.0) return sc;
  const bool all = kind == "all";
  bool known = all;
  if (all || kind == "pcie") {
    known = true;
    sc.pcie_stall_prob = 0.25 * intensity;
    sc.pcie_stall_mean_s = 5e-3 * intensity;
    sc.pcie_fail_prob = 0.10 * intensity;
  }
  if (all || kind == "cpu") {
    known = true;
    // A co-running app periodically steals the shared DRAM bandwidth the
    // memory-bound CPU expert path depends on.
    sc.cpu_contention_period_s = 0.05;
    sc.cpu_contention_window_s = 0.03 * intensity;
    sc.cpu_contention_slowdown = 1.0 + 3.0 * intensity;
  }
  if (all || kind == "thermal") {
    known = true;
    sc.gpu_throttle_period_s = 0.2;
    sc.gpu_throttle_window_s = 0.08 * intensity;
    sc.gpu_throttle_slowdown = 1.0 + 0.8 * intensity;
  }
  if (all || kind == "expert-load") {
    known = true;
    sc.expert_load_fail_prob = 0.5 * intensity;
  }
  // Checkpoint-durability presets (recovery plane). Deliberately NOT part
  // of "all" either: checkpointing postdates it and "all" runs must stay
  // bit-identical.
  const bool ckpt = kind == "ckpt";
  if (ckpt || kind == "ckpt-torn") {
    known = true;
    sc.ckpt_torn_write_prob = 0.5 * intensity;
  }
  if (ckpt || kind == "ckpt-corrupt") {
    known = true;
    sc.ckpt_corrupt_prob = 0.25 * intensity;
  }
  // Node-scoped presets (cluster plane). Deliberately NOT part of "all":
  // "all" predates the cluster layer and its runs must stay bit-identical.
  const bool cluster = kind == "cluster";
  if (cluster || kind == "node-crash") {
    known = true;
    sc.node_crash_prob = intensity;
    sc.node_crash_min_s = 5.0;
    sc.node_crash_max_s = 50.0;
  }
  if (cluster || kind == "node-brownout") {
    known = true;
    sc.node_brownout_prob = intensity;
    sc.node_brownout_min_start_s = 1.0;
    sc.node_brownout_max_start_s = 20.0;
    sc.node_brownout_duration_s = 10.0;
    sc.node_brownout_slowdown = 1.0 + 2.0 * intensity;
  }
  if (cluster || kind == "link-degrade") {
    known = true;
    sc.link_degrade_prob = intensity;
    sc.link_degrade_latency_s = 0.02 * intensity;
  }
  DAOP_CHECK_MSG(known, "unreachable: kind was validated above");
  sc.validate();
  return sc;
}

const std::vector<std::string>& hazard_scenario_kinds() {
  static const std::vector<std::string> kinds = {
      "none",         "pcie",        "cpu",          "thermal",
      "expert-load",  "ckpt-torn",   "ckpt-corrupt", "ckpt",
      "node-crash",   "node-brownout", "link-degrade", "cluster",
      "all"};
  return kinds;
}

FaultModel::FaultModel(const HazardScenario& scenario, std::uint64_t seed)
    : scenario_(scenario) {
  scenario_.validate();
  enabled_ = scenario_.enabled();
  Rng base(seed);
  transfer_rng_ = base.fork(1);
  load_rng_ = base.fork(2);
  // Window phases are drawn once so hazard windows do not all start at
  // t = 0 (which would systematically punish prefill).
  Rng phase_rng = base.fork(3);
  cpu_phase_s_ = phase_rng.uniform() * scenario_.cpu_contention_period_s;
  gpu_phase_s_ = phase_rng.uniform() * scenario_.gpu_throttle_period_s;
  // Node-scoped fault draws live on their own stream (fork 4) with a fixed
  // draw count, so the op-level streams above — and thus every pre-cluster
  // hazard run — are bit-identical whether or not node faults are
  // configured.
  // Checkpoint-durability hazards draw from fork 5; declared before the
  // node stream below for no reason other than locality — every fork is
  // consumption-independent, so neither order nor probability settings can
  // shift another stream's draws.
  ckpt_rng_ = base.fork(5);
  Rng node_rng = base.fork(4);
  const double u_crash = node_rng.uniform();
  const double u_crash_t = node_rng.uniform();
  const double u_brownout = node_rng.uniform();
  const double u_brownout_t = node_rng.uniform();
  const double u_link = node_rng.uniform();
  node_.crash =
      scenario_.node_crash_prob > 0.0 && u_crash < scenario_.node_crash_prob;
  node_.crash_time_s =
      scenario_.node_crash_min_s +
      u_crash_t * (scenario_.node_crash_max_s - scenario_.node_crash_min_s);
  node_.brownout = scenario_.node_brownout_prob > 0.0 &&
                   scenario_.node_brownout_duration_s > 0.0 &&
                   scenario_.node_brownout_slowdown > 1.0 &&
                   u_brownout < scenario_.node_brownout_prob;
  node_.brownout_start_s = scenario_.node_brownout_min_start_s +
                           u_brownout_t * (scenario_.node_brownout_max_start_s -
                                           scenario_.node_brownout_min_start_s);
  node_.brownout_end_s =
      node_.brownout_start_s + scenario_.node_brownout_duration_s;
  node_.brownout_slowdown = scenario_.node_brownout_slowdown;
  node_.link_degraded = scenario_.link_degrade_prob > 0.0 &&
                        u_link < scenario_.link_degrade_prob;
  node_.link_latency_s = scenario_.link_degrade_latency_s;

  // Live windows, read off the branches of perturb() below: a resource is
  // live at every start when one of its hazards draws or follows a
  // periodic schedule, and otherwise only inside the brownout window (GPU
  // and PCIe; the CPU pool rides brownouts out).
  if (!enabled_) return;  // every window stays empty
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Window always{-kInf, kInf};
  const Window brownout = node_.brownout ? Window{node_.brownout_start_s,
                                                  node_.brownout_end_s}
                                         : Window{};
  live_[static_cast<std::size_t>(Res::GpuStream)] =
      cycles(scenario_.gpu_throttle_period_s, scenario_.gpu_throttle_window_s)
          ? always
          : brownout;
  live_[static_cast<std::size_t>(Res::CpuPool)] =
      cycles(scenario_.cpu_contention_period_s,
             scenario_.cpu_contention_window_s)
          ? always
          : Window{};
  const Window pcie =
      scenario_.pcie_stall_prob > 0.0 || scenario_.pcie_fail_prob > 0.0
          ? always
          : brownout;
  live_[static_cast<std::size_t>(Res::PcieH2D)] = pcie;
  live_[static_cast<std::size_t>(Res::PcieD2H)] = pcie;
}

FaultModel::Perturbation FaultModel::perturb(Res r, double start,
                                             double duration) {
  Perturbation p;
  if (!enabled_ || duration <= 0.0) return p;
  switch (r) {
    case Res::GpuStream:
      if (in_window(start, scenario_.gpu_throttle_period_s,
                    scenario_.gpu_throttle_window_s, gpu_phase_s_)) {
        p.extra_s = duration * (scenario_.gpu_throttle_slowdown - 1.0);
      }
      break;
    case Res::CpuPool:
      if (in_window(start, scenario_.cpu_contention_period_s,
                    scenario_.cpu_contention_window_s, cpu_phase_s_)) {
        p.extra_s = duration * (scenario_.cpu_contention_slowdown - 1.0);
      }
      break;
    case Res::PcieH2D:
    case Res::PcieD2H: {
      if (scenario_.pcie_stall_prob > 0.0 &&
          transfer_rng_.uniform() < scenario_.pcie_stall_prob) {
        // Exponential stall with the configured mean.
        p.extra_s += -scenario_.pcie_stall_mean_s *
                     std::log(std::max(transfer_rng_.uniform(), 1e-12));
      }
      if (scenario_.pcie_fail_prob > 0.0) {
        double backoff = kTransferRetryBackoffS;
        while (p.retries < scenario_.max_transfer_retries &&
               transfer_rng_.uniform() < scenario_.pcie_fail_prob) {
          // The failed attempt burned the full transfer; back off and
          // re-transfer. The final attempt always succeeds.
          p.extra_s += duration + backoff;
          backoff *= 2.0;
          ++p.retries;
        }
      }
      break;
    }
  }
  // Node brownout: a sustained slowdown of this node's GPU stream and PCIe
  // link (the CPU pool rides out a brownout — it is host-side). A fixed
  // window like the contention/throttle hazards, so it consumes no draws.
  if (r != Res::CpuPool && in_brownout(start)) {
    p.extra_s += duration * (node_.brownout_slowdown - 1.0);
  }
  return p;
}

bool FaultModel::expert_load_fails() {
  if (scenario_.expert_load_fail_prob <= 0.0) return false;
  return load_rng_.uniform() < scenario_.expert_load_fail_prob;
}

bool FaultModel::checkpoint_write_torn() {
  if (scenario_.ckpt_torn_write_prob <= 0.0) return false;
  return ckpt_rng_.uniform() < scenario_.ckpt_torn_write_prob;
}

bool FaultModel::checkpoint_corrupted() {
  if (scenario_.ckpt_corrupt_prob <= 0.0) return false;
  return ckpt_rng_.uniform() < scenario_.ckpt_corrupt_prob;
}

std::uint64_t FaultModel::checkpoint_entropy() { return ckpt_rng_.next_u64(); }

}  // namespace daop::sim
