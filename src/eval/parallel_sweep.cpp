#include "eval/parallel_sweep.hpp"

#include <cstdio>
#include <map>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "engines/run_metrics.hpp"

namespace daop::eval {

namespace {

// Round-trip double formatting for precomputation cache keys: two cells
// share a precomputed value only when the inputs are bit-equal.
void append_g(std::string& s, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g|", v);
  s += buf;
}

void append_i(std::string& s, long long v) {
  s += std::to_string(v);
  s += '|';
}

// Everything calibrated_initial_placement() reads. The calibration workload
// itself is the fixed sharegpt_calibration() preset, so it needs no key.
std::string placement_key(const SpeedGridCell& c) {
  std::string k = "p|";
  k += c.model.name;
  k += '|';
  append_i(k, c.model.n_layers);
  append_i(k, c.model.n_experts);
  append_i(k, c.model.top_k);
  append_g(k, c.options.ecr);
  append_i(k, c.options.calibration_seqs);
  append_i(k, static_cast<long long>(c.options.seed));
  return k;
}

// Everything generate_eval_traces() reads: the workload's full statistical
// spec plus the generator dimensions and per-eval sequence parameters.
std::string traces_key(const SpeedGridCell& c) {
  std::string k = "t|";
  k += c.workload.name;
  k += '|';
  append_g(k, c.workload.seq_skew_sigma);
  append_g(k, c.workload.token_noise_sigma);
  append_g(k, c.workload.phase_shift_sigma);
  append_g(k, c.workload.drift_sigma);
  append_g(k, c.workload.drift_rho);
  append_g(k, c.workload.layer_rho);
  append_g(k, c.workload.pred_noise_early);
  append_g(k, c.workload.pred_noise_late);
  append_i(k, c.model.n_layers);
  append_i(k, c.model.n_experts);
  append_i(k, c.model.top_k);
  append_i(k, static_cast<long long>(c.options.seed));
  append_i(k, c.options.n_seqs);
  append_i(k, c.options.prompt_len);
  append_i(k, c.options.gen_len);
  return k;
}

}  // namespace

void ParallelSweepRunner::run_cells(
    std::int64_t n, const std::function<void(std::int64_t)>& fn) const {
  if (threads_ == 0) {
    ThreadPool::global().parallel_for(n, fn);
    return;
  }
  ThreadPool pool(threads_);
  pool.parallel_for(n, fn);
}

std::vector<SpeedGridCellResult> ParallelSweepRunner::run_speed_grid(
    const std::vector<SpeedGridCell>& cells,
    obs::MetricsRegistry* metrics) const {
  // Shared precomputation: one calibration / trace-generation pass per
  // distinct key, run on the calling thread one key after another — each
  // pass fans its sequences out over the shared pool itself.
  std::map<std::string, cache::Placement> placements;
  std::map<std::string, std::vector<data::SequenceTrace>> trace_sets;
  for (const SpeedGridCell& c : cells) {
    DAOP_CHECK_MSG(c.options.metrics == nullptr,
                   "grid cells must not carry a metrics registry; pass it to "
                   "run_speed_grid for the ordered merge");
    DAOP_CHECK_MSG(c.options.profiler == nullptr,
                   "grid cells must not carry a profiler");
    if (c.options.initial_placement == nullptr &&
        !placements.contains(placement_key(c))) {
      placements.emplace(placement_key(c),
                         calibrated_initial_placement(c.model, c.options));
    }
    if (c.options.traces == nullptr && !trace_sets.contains(traces_key(c))) {
      trace_sets.emplace(traces_key(c),
                         generate_eval_traces(c.model, c.workload, c.options));
    }
  }

  // Parallel phase: each cell runs fully isolated into its index slot.
  std::vector<SpeedGridCellResult> results(cells.size());
  run_cells(static_cast<std::int64_t>(cells.size()), [&](std::int64_t i) {
    const SpeedGridCell& c = cells[static_cast<std::size_t>(i)];
    SpeedGridCellResult& out = results[static_cast<std::size_t>(i)];
    SpeedEvalOptions opt = c.options;
    if (opt.initial_placement == nullptr) {
      opt.initial_placement = &placements.at(placement_key(c));
    }
    if (opt.traces == nullptr) {
      opt.traces = &trace_sets.at(traces_key(c));
    }
    if (opt.cache.enabled()) opt.cache_report = &out.cache_report;
    out.per_sequence =
        run_speed_eval_per_sequence(c.kind, c.model, c.platform, c.workload,
                                    opt);
    out.aggregate = engines::aggregate_results(out.per_sequence[0].engine,
                                               out.per_sequence);
  });

  // Ordered merge: the registry sees results in cell-then-sequence order on
  // the calling thread — byte-identical to the serial loop's registry.
  if (metrics != nullptr) {
    for (const SpeedGridCellResult& cell : results) {
      for (const engines::RunResult& r : cell.per_sequence) {
        engines::record_run_metrics(*metrics, r);
      }
    }
  }
  return results;
}

}  // namespace daop::eval
