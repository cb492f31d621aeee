// Health checking for the cluster router (src/cluster/router.hpp).
//
// The router cannot see a replica's internal state — a crashed node simply
// stops answering, and a browned-out one answers slowly. The HealthChecker
// models the operational answer: probe every node on a fixed simulated-time
// cadence, eject a node from the routing set after K consecutive
// missed/slow probes, and re-admit it after M consecutive good ones. It is
// the only component allowed to remove a node from dispatch eligibility;
// with health checking disabled the router keeps dispatching to dead nodes
// and pays for it through the failover path (exactly the naive baseline the
// chaos acceptance bench beats).
//
// Deterministic and single-threaded like the rest of the simulation: probe
// times are a fixed schedule and every transition is a pure function of the
// observed probe sequence.
#pragma once

#include <limits>
#include <vector>

namespace daop::cluster {

struct HealthOptions {
  /// Off by default: every node stays dispatch-eligible forever and the
  /// router's behaviour is independent of the checker.
  bool enabled = false;
  /// Simulated-time cadence of probe rounds (first round at one interval).
  double probe_interval_s = 0.25;
  /// Consecutive missed/slow probes before a node is ejected.
  int eject_after = 3;
  /// Consecutive good probes before an ejected node is re-admitted.
  int readmit_after = 2;
  /// A responsive probe counts as "slow" when the node is inside a brownout
  /// window or its projected first-token wait exceeds this; 0 disables
  /// slowness detection (only missed probes count against a node).
  double slow_probe_s = 0.0;

  void validate() const;
};

/// One ejection or re-admission, in probe-time order.
struct HealthEvent {
  double time = 0.0;
  int node = -1;
  bool ejected = false;  ///< true = ejected, false = re-admitted
  const char* reason = "";
};

class HealthChecker {
 public:
  HealthChecker(const HealthOptions& options, int n_nodes);

  /// Time of the next probe round (+inf when disabled). Advances by one
  /// interval per observe() call.
  double next_probe_time() const {
    return options_.enabled ? next_probe_
                            : std::numeric_limits<double>::infinity();
  }

  /// What one probe of one node came back as.
  struct Probe {
    bool responsive = true;  ///< false: the node is down (probe missed)
    bool slow = false;       ///< responded past the slowness threshold
  };

  /// Feeds one probe round (one entry per node) taken at next_probe_time().
  void observe(double now, const std::vector<Probe>& probes);

  /// Dispatch eligibility: true unless the checker has ejected the node.
  /// Always true when disabled — the naive router trusts every replica.
  bool in_service(int node) const;

  const std::vector<HealthEvent>& events() const { return events_; }
  long long ejections() const { return ejections_; }
  long long readmissions() const { return readmissions_; }

 private:
  HealthOptions options_;
  double next_probe_ = 0.0;
  std::vector<int> bad_streak_;
  std::vector<int> good_streak_;
  std::vector<bool> ejected_;
  std::vector<HealthEvent> events_;
  long long ejections_ = 0;
  long long readmissions_ = 0;
};

}  // namespace daop::cluster
