// Unit tests for Algorithm 1 (sequence-specific expert allocation).
#include "core/allocation.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/check.hpp"

namespace daop::core {
namespace {

cache::Placement placement_with_gpu(int n_experts,
                                    const std::vector<int>& gpu) {
  cache::Placement p(1, n_experts);
  p.set_capacity(0, static_cast<int>(gpu.size()));
  for (int e : gpu) p.move_to_gpu(0, e);
  return p;
}

/// Algorithm 1 on layer 0 with a fresh scratch, as an owning list.
std::vector<SwapDecision> swaps_of(const std::vector<double>& counts,
                                   const cache::Placement& p,
                                   double swap_in_out) {
  SwapScratch scratch(p.n_experts());
  const std::span<const SwapDecision> swaps =
      sequence_specific_swaps(counts, p, 0, swap_in_out, scratch);
  return {swaps.begin(), swaps.end()};
}

TEST(Allocation, SwapsHotCpuForColdGpu) {
  // GPU: {0,1}; CPU: {2,3}. Expert 2 very hot, expert 1 cold.
  const auto p = placement_with_gpu(4, {0, 1});
  const std::vector<double> counts = {10.0, 1.0, 20.0, 0.0};
  const auto swaps = swaps_of(counts, p, 1.05);
  ASSERT_EQ(swaps.size(), 1U);
  EXPECT_EQ(swaps[0].expert_in, 2);
  EXPECT_EQ(swaps[0].expert_out, 1);
}

TEST(Allocation, ThresholdSuppressesMarginalSwaps) {
  const auto p = placement_with_gpu(4, {0, 1});
  // Hot CPU expert barely above the cold GPU expert: 10 vs 10 -> no swap at
  // threshold 1.05; swap at threshold 1.0.
  const std::vector<double> counts = {20.0, 10.0, 10.0, 0.0};
  EXPECT_TRUE(swaps_of(counts, p, 1.05).empty());
  ASSERT_EQ(swaps_of(counts, p, 1.0).size(), 1U);
}

TEST(Allocation, ExactThresholdBoundaryCounts) {
  const auto p = placement_with_gpu(4, {0, 1});
  // 10.5 >= 1.05 * 10 exactly -> swap fires (Algorithm 1 line 11 uses >=).
  const std::vector<double> counts = {20.0, 10.0, 10.5, 0.0};
  EXPECT_EQ(swaps_of(counts, p, 1.05).size(), 1U);
}

TEST(Allocation, PairsHottestWithColdest) {
  // GPU: {0,1,2,3} counts {9, 1, 8, 2}; CPU: {4,5,6,7} counts {7, 30, 0, 6}.
  // SwapNum = 4, pairs limited by min(|CPU|, |GPU|, 4) = 4.
  // Hot order: 5(30), 4(7), 7(6), 6(0); cold order: 1(1), 3(2), 2(8), 0(9).
  // Pairs: (5,1): 30>=1.05 -> swap; (4,3): 7>=2.1 -> swap; (7,2): 6 < 8.4
  // -> no; (6,0): 0 -> no.
  const auto p = placement_with_gpu(8, {0, 1, 2, 3});
  const std::vector<double> counts = {9, 1, 8, 2, 7, 30, 0, 6};
  const auto swaps = swaps_of(counts, p, 1.05);
  ASSERT_EQ(swaps.size(), 2U);
  EXPECT_EQ(swaps[0].expert_in, 5);
  EXPECT_EQ(swaps[0].expert_out, 1);
  EXPECT_EQ(swaps[1].expert_in, 4);
  EXPECT_EQ(swaps[1].expert_out, 3);
}

TEST(Allocation, SwapNumLimitsPairs) {
  // 8 experts -> SwapNum = 4 even if more CPU experts are hot.
  const auto p = placement_with_gpu(8, {0, 1, 2});
  const std::vector<double> counts = {0, 0, 0, 50, 50, 50, 50, 50};
  const auto swaps = swaps_of(counts, p, 1.05);
  // Limited by |GPU| = 3 pairs here.
  EXPECT_EQ(swaps.size(), 3U);
}

TEST(Allocation, ZeroCountHotExpertNeverSwapsIn) {
  const auto p = placement_with_gpu(4, {0, 1});
  const std::vector<double> counts = {0.0, 0.0, 0.0, 0.0};
  EXPECT_TRUE(swaps_of(counts, p, 1.05).empty());
}

TEST(Allocation, EmptyGpuOrCpuSideNoSwaps) {
  const auto all_gpu = placement_with_gpu(4, {0, 1, 2, 3});
  const std::vector<double> counts = {1, 2, 3, 4};
  EXPECT_TRUE(swaps_of(counts, all_gpu, 1.05).empty());

  cache::Placement none(1, 4);
  EXPECT_TRUE(swaps_of(counts, none, 1.05).empty());
}

TEST(Allocation, ApplySwapsUpdatesPlacement) {
  auto p = placement_with_gpu(4, {0, 1});
  // Pairs: (2,1): 20 >= 1.05*1 -> swap; (3,0): 15 >= 1.05*10 -> swap.
  const std::vector<double> counts = {10.0, 1.0, 20.0, 15.0};
  const auto swaps = swaps_of(counts, p, 1.05);
  ASSERT_EQ(swaps.size(), 2U);
  apply_swaps(p, 0, swaps);
  EXPECT_TRUE(p.on_gpu(0, 2));
  EXPECT_TRUE(p.on_gpu(0, 3));
  EXPECT_FALSE(p.on_gpu(0, 0));
  EXPECT_FALSE(p.on_gpu(0, 1));
  EXPECT_EQ(p.gpu_count(0), 2);  // capacity invariant preserved
}

TEST(Allocation, SwapsPreserveGpuCount) {
  auto p = placement_with_gpu(8, {0, 1, 2, 3});
  const std::vector<double> counts = {0, 0, 0, 0, 9, 9, 9, 9};
  const auto swaps = swaps_of(counts, p, 1.05);
  apply_swaps(p, 0, swaps);
  EXPECT_EQ(p.gpu_count(0), 4);
}

TEST(Allocation, RejectsBadInputs) {
  const auto p = placement_with_gpu(4, {0});
  const std::vector<double> wrong_size = {1.0, 2.0};
  EXPECT_THROW(swaps_of(wrong_size, p, 1.05), CheckError);
  const std::vector<double> counts = {1, 2, 3, 4};
  EXPECT_THROW(swaps_of(counts, p, 0.9), CheckError);
  SwapScratch other_model(8);
  EXPECT_THROW(sequence_specific_swaps(counts, p, 0, 1.05, other_model),
               CheckError);
}

}  // namespace
}  // namespace daop::core
