// The three benchmark workloads. Each builds its inputs from a seed
// (setup), then runs them through the library's public entry points
// (execute), on the calling thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// What one execution produced.
struct ExecReport {
  /// Simulated end-to-end metrics (bit-identical across executions).
  MetricValues e2e;
  /// Simulated per-layer values: counters, ratios, and (traced only) the
  /// attribution breakdown and op counts. Bit-identical like `e2e`.
  MetricValues layer;
  /// Wall-clock sub-measurements taken inside the execution (export and
  /// attribution times, the router's own run() time). Never compared.
  MetricValues wall;
  long long attempted = 0;
  /// Prompt + generated tokens of served requests: the base of every
  /// wall-clock per-token metric.
  long long processed_tokens = 0;
  /// Generated tokens of served requests: the base of every simulated
  /// per-token metric.
  long long generated_tokens = 0;
};

struct ExecOptions {
  /// Record timeline intervals and derive attribution, op counts and
  /// export timings from them (the traced pass).
  bool traced = false;
  /// Attach the workload's observability sinks (cluster-chaos only; the
  /// other workloads run with every sink off).
  bool sinks = true;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;

  /// Builds the inputs for `seed`: calibrated placement, routing traces and
  /// request plan. Timed as setup_s.
  virtual void setup(std::uint64_t seed) = 0;
  /// Copies the inputs into the form execute() consumes; untimed.
  virtual void prepare() {}
  /// One execution of the workload through the library (the timed unit).
  virtual ExecReport execute(const ExecOptions& opt, Checks& checks) = 0;
  /// Checks that need a second system (e.g. the Fiddler baseline), made
  /// once per run outside the timed phase.
  virtual void check_once(const ExecReport& report, Checks& checks) {
    (void)report;
    (void)checks;
  }
  /// Per-layer metrics only this workload can measure (beyond the shared
  /// probes in traced.cpp), and explicit zeros for layers it bypasses.
  /// `untraced_wall_s` is the median untraced execution time and
  /// `bare_us_per_tok` the bare engine's wall per prompt+gen token.
  virtual void layer_probes(const ExecReport& report, double untraced_wall_s,
                            double bare_us_per_tok, MetricValues& out,
                            Checks& checks) = 0;

  /// The workload's routing traces, in plan order.
  virtual std::vector<const data::SequenceTrace*> traces() const = 0;
  /// The set-up's seed, to regenerate traces in the traced pass.
  std::uint64_t seed() const { return seed_; }
  const cache::Placement& placement() const { return placement_; }

 protected:
  std::uint64_t seed_ = 0;
  cache::Placement placement_{1, 1};
};

std::unique_ptr<Workload> make_workload(const std::string& name);

/// Prints the calm-saturation probes the traffic constants were derived
/// from (see common.hpp, namespace traffic).
void derive_traffic(std::uint64_t seed);

}  // namespace perfbench
