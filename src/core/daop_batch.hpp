// Batched DAOP decoding — extension beyond the paper (see engines/batch.hpp
// for why batching matters and for the Fiddler counterpart).
#pragma once

#include <span>

#include "cache/placement.hpp"
#include "core/daop_config.hpp"
#include "data/routing_trace.hpp"
#include "engines/batch.hpp"
#include "model/op_costs.hpp"

namespace daop::core {

/// Batched DAOP: Algorithm 1 runs on the batch's summed prefill counts
/// (one cache serves everyone); each sequence's decode decisions come from
/// its own DecodePolicy (gate-ahead pre-calculation, graceful degradation,
/// mispredict_policy, adaptive skipping), with GPU and CPU work aggregated
/// per expert. All traces must share prompt_len/gen_len/topology. The
/// per-session extensions cpu_quant_bits, decode_realloc_interval and
/// stale_precalc_factor have no batched model and are rejected. A non-null
/// `fault` injects hazards into every scheduled op.
engines::BatchResult run_daop_batch(
    const model::OpCosts& costs, const DaopConfig& config,
    std::span<const data::SequenceTrace> traces,
    const cache::Placement& initial, sim::FaultModel* fault = nullptr);

}  // namespace daop::core
