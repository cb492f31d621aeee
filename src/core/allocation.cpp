#include "core/allocation.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace daop::core {

SwapScratch::SwapScratch(int n_experts)
    : hot(static_cast<std::size_t>(n_experts)),
      cold(static_cast<std::size_t>(n_experts)),
      swaps(static_cast<std::size_t>(n_experts / 2)) {}

std::span<const SwapDecision> sequence_specific_swaps(
    std::span<const double> token_counts, const cache::Placement& placement,
    int layer, double swap_in_out, SwapScratch& scratch) {
  const int E = placement.n_experts();
  DAOP_CHECK_EQ(static_cast<int>(token_counts.size()), E);
  DAOP_CHECK_GE(swap_in_out, 1.0);
  DAOP_CHECK_EQ(static_cast<int>(scratch.hot.size()), E);
  const std::span<const cache::Device> row = placement.layer(layer);
  const auto count = [&](int e) {
    return token_counts[static_cast<std::size_t>(e)];
  };

  // Line 5: SwapNum = 0.5 * number of experts.
  const int swap_num = E / 2;

  // Lines 6-8: most active CPU experts, least active GPU experts. Each id is
  // inserted behind every id of equal count, so ties keep expert order (the
  // order a stable sort gives) with no temporary buffer.
  std::size_t n_hot = 0;
  std::size_t n_cold = 0;
  for (int e = 0; e < E; ++e) {
    const double c = count(e);
    if (row[static_cast<std::size_t>(e)] == cache::Device::Gpu) {
      std::size_t i = n_cold++;
      for (; i > 0 && count(scratch.cold[i - 1]) > c; --i) {
        scratch.cold[i] = scratch.cold[i - 1];
      }
      scratch.cold[i] = e;
    } else {
      std::size_t i = n_hot++;
      for (; i > 0 && count(scratch.hot[i - 1]) < c; --i) {
        scratch.hot[i] = scratch.hot[i - 1];
      }
      scratch.hot[i] = e;
    }
  }

  const std::size_t pairs =
      std::min({static_cast<std::size_t>(swap_num), n_hot, n_cold});

  // Lines 9-13: zip hot with cold; swap when HotProb >= SwapInOut * ColdProb.
  std::size_t n_swaps = 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    const int hot = scratch.hot[i];
    const int cold = scratch.cold[i];
    const double hot_count = count(hot);
    if (hot_count >= swap_in_out * count(cold) && hot_count > 0.0) {
      scratch.swaps[n_swaps++] = SwapDecision{hot, cold};
    }
  }
  return {scratch.swaps.data(), n_swaps};
}

void apply_swaps(cache::Placement& placement, int layer,
                 std::span<const SwapDecision> swaps) {
  for (const SwapDecision& s : swaps) {
    placement.swap(layer, s.expert_in, s.expert_out);
  }
}

}  // namespace daop::core
