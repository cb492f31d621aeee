// Batched decoding — extension beyond the paper.
//
// The paper pins batch size to 1 ("simulate real-time inference", §V-A(c)).
// Serving deployments batch: B sequences advance one decode step together,
// sharing every weight read. Batching changes the economics of hybrid
// execution in two opposite directions:
//  - expert reads amortize over the batch's tokens, helping the GPU far
//    more than the bandwidth-bound CPU (CPU time grows ~linearly with
//    assigned tokens, §IV-B's own observation);
//  - the expert cache must serve the UNION of the batch's sequences, so
//    DAOP's per-sequence allocation advantage dilutes as B grows.
// run_daop_batch quantifies both effects on the simulated platform; with
// fiddler_config() it is the batched Fiddler baseline.
#pragma once

#include <span>
#include <string>

#include "cache/placement.hpp"
#include "core/daop_config.hpp"
#include "data/routing_trace.hpp"
#include "engines/engine.hpp"
#include "model/op_costs.hpp"

namespace daop::core {

struct BatchResult {
  /// engine_name(config) + " (batched)".
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
  engines::EngineCounters counters;
};

/// Batched DAOP: prefill executes every expert where it lives with the
/// batch's summed token counts, and Algorithm 1 runs on those counts (one
/// cache serves everyone); each sequence's decode decisions come from its
/// own DecodePolicy (gate-ahead pre-calculation, graceful degradation,
/// mispredict_policy, adaptive skipping), with GPU and CPU work aggregated
/// per expert. All traces must share prompt_len/gen_len/topology (the
/// diagnostic names the offending sequence). The per-session extensions
/// cpu_quant_bits, decode_realloc_interval and stale_precalc_factor have no
/// batched model and are rejected. A non-null `fault` injects hazards into
/// every scheduled op.
BatchResult run_daop_batch(const model::OpCosts& costs,
                           const DaopConfig& config,
                           std::span<const data::SequenceTrace> traces,
                           const cache::Placement& initial,
                           sim::FaultModel* fault = nullptr);

}  // namespace daop::core
