// Algorithm 1: sequence-specific expert allocation (paper §IV-B).
//
// After the gate of each block resolves during prefill, the most active
// CPU-resident experts are paired with the least active GPU-resident
// experts; a pair is swapped when the CPU expert's token count exceeds the
// GPU expert's by the SwapInOut threshold. Implemented as a pure function so
// every execution plane and the unit tests share one copy of the logic; it
// writes into caller-owned scratch, so planning a layer allocates nothing.
#pragma once

#include <span>
#include <vector>

#include "cache/placement.hpp"

namespace daop::core {

struct SwapDecision {
  int expert_in = -1;   ///< hot expert moving CPU -> GPU
  int expert_out = -1;  ///< cold expert moving GPU -> CPU
};

/// Caller-owned scratch for sequence_specific_swaps, sized once for a
/// model's expert count.
struct SwapScratch {
  explicit SwapScratch(int n_experts);
  std::vector<int> hot;              ///< CPU experts, count-descending
  std::vector<int> cold;             ///< GPU experts, count-ascending
  std::vector<SwapDecision> swaps;   ///< at most n_experts / 2
};

/// Computes the swaps Algorithm 1 performs for one layer.
/// `token_counts[e]` = tokens routed to expert e in this layer during
/// prefill (the expert's "activity level"). Does not mutate the placement.
/// The returned decisions live in `scratch` until its next use.
std::span<const SwapDecision> sequence_specific_swaps(
    std::span<const double> token_counts, const cache::Placement& placement,
    int layer, double swap_in_out, SwapScratch& scratch);

/// Applies the decisions to the placement.
void apply_swaps(cache::Placement& placement, int layer,
                 std::span<const SwapDecision> swaps);

}  // namespace daop::core
