// Deterministic parallel execution of speed-eval sweep grids.
//
// A sweep grid is a list of independent (engine × workload × options) cells
// — independent because each cell owns its engine, fault model, timeline,
// and RNG streams (per-cell RNG isolation: every random draw a cell makes is
// seeded from that cell's own options, never from shared mutable state). The
// runner exploits that independence two ways:
//
//  1. Shared precomputation: the §IV-A calibrated placement and the
//     per-sequence routing traces are pure functions of a cell's options, so
//     cells with equal keys share one computation. On robustness-scale grids
//     (48 cells over one workload) this removes ~95% of the trace-generation
//     work — the dominant cost — with bit-identical values.
//  2. Thread-pool fan-out with a deterministic ordered merge: cells run
//     concurrently into pre-allocated index slots; metrics are recorded into
//     the caller's registry on the calling thread afterwards, in cell-then-
//     sequence order — exactly the order a serial loop would have produced.
//
// Contract (locked down by tests/eval/parallel_sweep_test.cpp): the results,
// metrics snapshot, and trace bytes are byte-identical to running every cell
// serially in index order, for any thread count, hazards included.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "eval/speed.hpp"

namespace daop::eval {

/// One independent cell of a speed-eval sweep grid.
struct SpeedGridCell {
  EngineKind kind = EngineKind::Daop;
  model::ModelConfig model;
  sim::PlatformSpec platform;
  data::WorkloadSpec workload;
  /// Cell-local options. `metrics` and `profiler` must be null — passive
  /// sinks are not thread-safe, so the runner records metrics itself in the
  /// ordered merge (see run_speed_grid).
  SpeedEvalOptions options;
  /// Caller-side identification (scenario name etc.); unused by the runner.
  std::string label;
};

/// Everything one cell produced.
struct SpeedGridCellResult {
  std::vector<engines::RunResult> per_sequence;
  engines::RunResult aggregate;
  /// Cache attribution report, when the cell ran with a dynamic cache.
  std::string cache_report;
};

class ParallelSweepRunner {
 public:
  /// `threads` bounds the cell phase: 0 shares ThreadPool::global(); any
  /// other value runs cells on a private pool of that many workers (1 runs
  /// them inline). Set-up — calibration and trace generation — always
  /// spreads its sequences over the shared pool. The thread count never
  /// changes any output byte, only wall-clock time.
  explicit ParallelSweepRunner(unsigned threads = 0) : threads_(threads) {}

  /// Runs every cell and returns their results in cell order. When
  /// `metrics` is non-null, each per-sequence result is recorded into it
  /// after the parallel section, in cell-then-sequence order — the exact
  /// registry a serial loop over the cells would have built.
  std::vector<SpeedGridCellResult> run_speed_grid(
      const std::vector<SpeedGridCell>& cells,
      obs::MetricsRegistry* metrics = nullptr) const;

  /// Generic deterministic fan-out for custom cells (cache policies,
  /// cluster probe runs): executes fn(i) for i in [0, n) on the configured
  /// pool. fn must write only to its own index's slot; callers merge slots
  /// in index order afterwards.
  void run_cells(std::int64_t n,
                 const std::function<void(std::int64_t)>& fn) const;

  unsigned threads() const { return threads_; }

 private:
  unsigned threads_;
};

}  // namespace daop::eval
