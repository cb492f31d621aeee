#include "cache/calibration.hpp"

#include <gtest/gtest.h>

#include "cache/placement.hpp"
#include "../testing/helpers.hpp"
#include "common/check.hpp"
#include "data/workload.hpp"

namespace daop::cache {
namespace {

data::TraceGenerator make_gen() {
  return data::TraceGenerator(data::sharegpt_calibration(), 8, 8, 2, 77);
}

TEST(Calibration, ShapeAndMass) {
  const auto gen = make_gen();
  const auto counts = calibrate_activation_counts(gen, 4);
  ASSERT_EQ(counts.size(), 8U);
  for (const auto& layer : counts) {
    ASSERT_EQ(layer.size(), 8U);
    double sum = 0.0;
    for (double v : layer) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    // 4 sequences x default gen_len tokens x top-2 routes per layer.
    EXPECT_DOUBLE_EQ(sum, 4.0 * 2.0 * data::sharegpt_calibration().gen_len);
  }
}

TEST(Calibration, Deterministic) {
  const auto a = calibrate_activation_counts(make_gen(), 3);
  const auto b = calibrate_activation_counts(make_gen(), 3);
  EXPECT_EQ(a, b);
}

TEST(Calibration, MoreSequencesMoreMass) {
  const auto gen = make_gen();
  const auto small = calibrate_activation_counts(gen, 2);
  const auto large = calibrate_activation_counts(gen, 4);
  double ssum = 0.0;
  double lsum = 0.0;
  for (std::size_t l = 0; l < small.size(); ++l) {
    for (std::size_t e = 0; e < small[l].size(); ++e) {
      ssum += small[l][e];
      lsum += large[l][e];
    }
  }
  EXPECT_DOUBLE_EQ(lsum, 2.0 * ssum);
}

TEST(Calibration, FeedsPlacementInit) {
  const auto counts = calibrate_activation_counts(make_gen(), 4);
  const Placement p = init_placement_calibrated(8, 8, 0.5, counts);
  EXPECT_EQ(testing::total_gpu_count(p), 32);
}

TEST(Calibration, RejectsZeroSequences) {
  EXPECT_THROW(calibrate_activation_counts(make_gen(), 0), daop::CheckError);
}

}  // namespace
}  // namespace daop::cache
