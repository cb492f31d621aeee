// Batched decoding — extension beyond the paper.
//
// The paper pins batch size to 1 ("simulate real-time inference", §V-A(c)).
// Serving deployments batch: B sequences advance one decode step together,
// sharing every weight read. Batching changes the economics of both hybrid
// engines in opposite directions:
//  - expert reads amortize over the batch's tokens, helping the GPU far
//    more than the bandwidth-bound CPU (CPU time grows ~linearly with
//    assigned tokens, §IV-B's own observation);
//  - the expert cache must serve the UNION of the batch's sequences, so
//    DAOP's per-sequence allocation advantage dilutes as B grows.
// run_fiddler_batch (here) and core::run_daop_batch (core/daop_batch.hpp)
// quantify both effects on the simulated platform; the helpers below are
// the mechanics they share.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "cache/placement.hpp"
#include "data/routing_trace.hpp"
#include "engines/engine.hpp"
#include "model/op_costs.hpp"

namespace daop::engines {

struct BatchResult {
  std::string engine;
  int batch = 0;
  int tokens_generated = 0;   ///< summed over the batch
  double prefill_s = 0.0;
  double total_s = 0.0;
  /// Aggregate throughput: all generated tokens / wall time.
  double tokens_per_s = 0.0;
  /// Per-sequence rate (what one user experiences).
  double per_seq_tokens_per_s = 0.0;
  sim::EnergyBreakdown energy;
  double tokens_per_kj = 0.0;
  EngineCounters counters;
};

/// Batched Fiddler: per layer, resident experts execute on the GPU with
/// their batch token counts; missing experts on the CPU. All traces must
/// share prompt_len/gen_len/topology. A non-null `fault` injects hazards
/// into every scheduled op (see sim/fault_model.hpp).
BatchResult run_fiddler_batch(const model::OpCosts& costs,
                              std::span<const data::SequenceTrace> traces,
                              const cache::Placement& initial,
                              sim::FaultModel* fault = nullptr);

// ---- Shared batch mechanics ----

/// CHECKs a batch against the model: non-empty, matching topology, and one
/// prompt_len / gen_len for every sequence (the diagnostic names the
/// offending sequence).
void check_batch(std::span<const data::SequenceTrace> traces,
                 const model::ModelConfig& cfg,
                 const cache::Placement& initial);

/// Summed per-expert prefill token counts across the batch: out[layer][e].
std::vector<std::vector<double>> batch_prefill_counts(
    std::span<const data::SequenceTrace> traces);

/// Hybrid prefill: every expert executes where it lives, with the batch's
/// summed token counts. Returns the prefill end time.
double hybrid_prefill(sim::Timeline& tl, const model::OpCosts& costs,
                      const cache::Placement& placement,
                      const std::vector<std::vector<double>>& counts,
                      int batch_prompt_tokens, EngineCounters& counters);

/// Batched CPU-expert round trip: the shared session helper priced with the
/// batched CPU execution cost. Returns the result-arrival time.
double cpu_expert_batch(sim::Timeline& tl, const model::OpCosts& costs,
                        double start, int n_tokens, EngineCounters& counters);

/// Rates, energy and counters of a finished batched run.
BatchResult finalize_batch(const std::string& name,
                           const model::OpCosts& costs, int batch,
                           int gen_len, const sim::Timeline& tl,
                           double prefill_end, double end,
                           const EngineCounters& counters);

}  // namespace daop::engines
