#include "cache/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "../testing/helpers.hpp"
#include "common/check.hpp"

namespace daop::cache {
namespace {

TEST(Placement, StartsAllOnCpu) {
  Placement p(4, 8);
  for (int l = 0; l < 4; ++l) {
    EXPECT_EQ(p.gpu_count(l), 0);
    EXPECT_EQ(p.capacity(l), 0);
    for (int e = 0; e < 8; ++e) EXPECT_FALSE(p.on_gpu(l, e));
  }
  EXPECT_DOUBLE_EQ(testing::ecr(p), 0.0);
}

TEST(Placement, MoveRespectsCapacity) {
  Placement p(2, 4);
  p.set_capacity(0, 2);
  EXPECT_TRUE(p.move_to_gpu(0, 1));
  EXPECT_TRUE(p.move_to_gpu(0, 3));
  EXPECT_THROW(p.move_to_gpu(0, 0), CheckError);  // full
  EXPECT_EQ(p.gpu_count(0), 2);
}

TEST(Placement, MoveIsIdempotent) {
  Placement p(1, 4);
  p.set_capacity(0, 2);
  EXPECT_TRUE(p.move_to_gpu(0, 1));
  EXPECT_FALSE(p.move_to_gpu(0, 1));  // already there
  EXPECT_EQ(p.gpu_count(0), 1);
  EXPECT_TRUE(p.move_to_cpu(0, 1));
  EXPECT_FALSE(p.move_to_cpu(0, 1));
  EXPECT_EQ(p.gpu_count(0), 0);
}

TEST(Placement, SwapExchangesDevices) {
  Placement p(1, 4);
  p.set_capacity(0, 1);
  p.move_to_gpu(0, 2);
  p.swap(0, /*expert_in=*/3, /*expert_out=*/2);
  EXPECT_TRUE(p.on_gpu(0, 3));
  EXPECT_FALSE(p.on_gpu(0, 2));
  EXPECT_EQ(p.gpu_count(0), 1);
}

TEST(Placement, SwapValidatesDirections) {
  Placement p(1, 4);
  p.set_capacity(0, 1);
  p.move_to_gpu(0, 2);
  EXPECT_THROW(p.swap(0, 3, 1), CheckError);  // 1 not on GPU
  EXPECT_THROW(p.swap(0, 2, 2), CheckError);  // 2 not on CPU
}

TEST(Placement, CapacityCannotDropBelowOccupancy) {
  Placement p(1, 4);
  p.set_capacity(0, 2);
  p.move_to_gpu(0, 0);
  p.move_to_gpu(0, 1);
  EXPECT_THROW(p.set_capacity(0, 1), CheckError);
}

TEST(Placement, ExpertListsPartition) {
  Placement p(1, 6);
  p.set_capacity(0, 3);
  p.move_to_gpu(0, 0);
  p.move_to_gpu(0, 4);
  // The residency row names every expert's device exactly once.
  const std::span<const Device> row = p.layer(0);
  const std::vector<Device> want{Device::Gpu, Device::Cpu, Device::Cpu,
                                 Device::Cpu, Device::Gpu, Device::Cpu};
  EXPECT_TRUE(std::equal(row.begin(), row.end(), want.begin(), want.end()));
}

TEST(Placement, EcrCountsAllLayers) {
  Placement p(2, 4);
  p.set_capacity(0, 4);
  p.set_capacity(1, 4);
  p.move_to_gpu(0, 0);
  p.move_to_gpu(1, 1);
  EXPECT_DOUBLE_EQ(testing::ecr(p), 2.0 / 8.0);
  EXPECT_EQ(testing::total_gpu_count(p), 2);
}

TEST(TotalSlots, RoundsToNearest) {
  EXPECT_EQ(total_slots_for_ecr(32, 8, 0.469), 120);
  EXPECT_EQ(total_slots_for_ecr(32, 8, 1.0), 256);
  EXPECT_EQ(total_slots_for_ecr(32, 8, 0.0), 0);
  EXPECT_THROW(total_slots_for_ecr(32, 8, 1.5), CheckError);
}

class CalibratedInit : public ::testing::TestWithParam<double> {};

TEST_P(CalibratedInit, SlotsMatchEcrAndTopExpertsChosen) {
  const double ecr = GetParam();
  const int L = 8;
  const int E = 8;
  // Calibration: expert e has count E - e in every layer (0 hottest).
  std::vector<std::vector<double>> counts(
      L, std::vector<double>(static_cast<std::size_t>(E)));
  for (auto& layer : counts) {
    for (int e = 0; e < E; ++e) layer[static_cast<std::size_t>(e)] = E - e;
  }
  const Placement p = init_placement_calibrated(L, E, ecr, counts);

  EXPECT_EQ(testing::total_gpu_count(p), total_slots_for_ecr(L, E, ecr));
  // Per-layer caches hold a prefix of the hottest experts.
  const int base = total_slots_for_ecr(L, E, ecr) / L;
  for (int l = 0; l < L; ++l) {
    EXPECT_GE(p.gpu_count(l), base);
    EXPECT_LE(p.gpu_count(l), base + 1);
    for (int e = 0; e < base; ++e) {
      EXPECT_TRUE(p.on_gpu(l, e)) << "layer " << l << " expert " << e;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EcrSweep, CalibratedInit,
                         ::testing::Values(0.125, 0.25, 0.375, 0.469, 0.5,
                                           0.625, 0.875, 1.0));

TEST(CalibratedInit, RemainderGoesToHottestUncached) {
  const int L = 4;
  const int E = 4;
  // 6 slots for 4 layers: base 1 each + 2 remainder.
  std::vector<std::vector<double>> counts(
      L, std::vector<double>(static_cast<std::size_t>(E), 1.0));
  // Make layer 2's second expert globally hottest uncached candidate, then
  // layer 0's.
  counts[2][1] = 50.0;
  counts[2][0] = 60.0;  // cached by the per-layer fill
  counts[0][1] = 40.0;
  counts[0][0] = 45.0;
  const double ecr = 6.0 / 16.0;
  const Placement p = init_placement_calibrated(L, E, ecr, counts);
  EXPECT_EQ(testing::total_gpu_count(p), 6);
  EXPECT_TRUE(p.on_gpu(2, 0));
  EXPECT_TRUE(p.on_gpu(2, 1));  // remainder slot 1
  EXPECT_TRUE(p.on_gpu(0, 0));
  EXPECT_TRUE(p.on_gpu(0, 1));  // remainder slot 2
  EXPECT_EQ(p.gpu_count(1), 1);
  EXPECT_EQ(p.gpu_count(3), 1);
}

TEST(CalibratedInit, FullEcrPlacesEverything) {
  const int L = 3;
  const int E = 4;
  std::vector<std::vector<double>> counts(
      L, std::vector<double>(static_cast<std::size_t>(E), 1.0));
  const Placement p = init_placement_calibrated(L, E, 1.0, counts);
  for (int l = 0; l < L; ++l) {
    for (int e = 0; e < E; ++e) EXPECT_TRUE(p.on_gpu(l, e));
  }
}

TEST(CalibratedInit, RejectsMismatchedCalibration) {
  std::vector<std::vector<double>> counts(2, std::vector<double>(4, 1.0));
  EXPECT_THROW(init_placement_calibrated(3, 4, 0.5, counts), CheckError);
}

TEST(GlobalGreedyInit, TotalSlotsMatchAndHottestWin) {
  const int L = 4;
  const int E = 4;
  std::vector<std::vector<double>> counts(
      L, std::vector<double>(static_cast<std::size_t>(E), 0.0));
  // All activation mass sits in layer 1.
  for (int e = 0; e < E; ++e) counts[1][static_cast<std::size_t>(e)] = 10.0 + e;
  const Placement p = init_placement_global_greedy(L, E, 0.25, counts);
  EXPECT_EQ(testing::total_gpu_count(p), 4);
  // Greedy gives every slot to layer 1 and starves the rest.
  EXPECT_EQ(p.gpu_count(1), 4);
  EXPECT_EQ(p.gpu_count(0), 0);
  EXPECT_EQ(p.gpu_count(2), 0);
  EXPECT_EQ(p.gpu_count(3), 0);
}

TEST(GlobalGreedyInit, MatchesCalibratedWhenCountsUniformPerLayer) {
  const int L = 2;
  const int E = 4;
  std::vector<std::vector<double>> counts = {{4.0, 3.0, 2.0, 1.0},
                                             {4.0, 3.0, 2.0, 1.0}};
  const Placement greedy = init_placement_global_greedy(L, E, 0.5, counts);
  const Placement calibrated = init_placement_calibrated(L, E, 0.5, counts);
  for (int l = 0; l < L; ++l) {
    for (int e = 0; e < E; ++e) {
      EXPECT_EQ(greedy.on_gpu(l, e), calibrated.on_gpu(l, e));
    }
  }
}

TEST(Placement, IndexBoundsChecked) {
  Placement p(2, 3);
  EXPECT_THROW(p.device(2, 0), CheckError);
  EXPECT_THROW(p.device(0, 3), CheckError);
  EXPECT_THROW(p.set_capacity(0, 4), CheckError);
}

}  // namespace
}  // namespace daop::cache
