// The Fiddler baseline: DAOP with its three mechanisms off
// (core::fiddler_config()).
#include <gtest/gtest.h>

#include "../testing/helpers.hpp"
#include "core/daop_engine.hpp"
#include "engines/fetch_engine.hpp"
#include "sim/device.hpp"

namespace daop::engines {
namespace {

using daop::testing::fixed_trace;
using daop::testing::prefix_placement;
using daop::testing::small_mixtral;

class FiddlerTest : public ::testing::Test {
 protected:
  FiddlerTest()
      : cfg_(small_mixtral()),
        cm_(sim::a6000_i9_platform()),
        costs_(cfg_, cm_) {}

  model::ModelConfig cfg_;
  sim::CostModel cm_;
  model::OpCosts costs_;
};

TEST_F(FiddlerTest, NeverMigratesExpertWeights) {
  const auto tr = fixed_trace(cfg_, 4, 6, {4, 5});
  const auto placement = prefix_placement(cfg_, 2);
  const auto engine = core::make_fiddler(costs_);
  const auto r = engine->run(tr, placement);
  EXPECT_EQ(r.counters.expert_migrations, 0);
  EXPECT_EQ(r.counters.prefill_swaps, 0);
}

TEST_F(FiddlerTest, MissingExpertsExecuteOnCpu) {
  const auto tr = fixed_trace(cfg_, 2, 3, {0, 5});  // 0 resident, 5 not
  const auto placement = prefix_placement(cfg_, 2);
  const auto engine = core::make_fiddler(costs_);
  const auto r = engine->run(tr, placement);
  // Expert 5: once per layer in prefill + per decode step per layer.
  EXPECT_EQ(r.counters.cpu_expert_execs, cfg_.n_layers + 3 * cfg_.n_layers);
  EXPECT_EQ(r.counters.gpu_expert_execs, cfg_.n_layers + 3 * cfg_.n_layers);
}

TEST_F(FiddlerTest, AllResidentRunsEntirelyOnGpu) {
  const auto tr = fixed_trace(cfg_, 2, 3, {0, 1});
  const auto placement = prefix_placement(cfg_, 2);
  const auto engine = core::make_fiddler(costs_);
  const auto r = engine->run(tr, placement);
  EXPECT_EQ(r.counters.cpu_expert_execs, 0);
  EXPECT_EQ(r.counters.cache_misses, 0);
}

TEST_F(FiddlerTest, CpuExecutionBeatsMigrationBoundFetching) {
  // The paper's core claim for Fiddler (§II-B / Fig. 8): executing a missing
  // expert on the CPU beats fetching its weights. Use alternating selections
  // so the fetch baseline cannot amortize via its LRU cache.
  const auto tr = daop::testing::alternating_trace(cfg_, 2, 6, {4, 5}, {6, 7});
  const auto placement = prefix_placement(cfg_, 2);
  const auto fiddler = core::make_fiddler(costs_);
  auto ondemand = make_moe_ondemand(costs_);
  const auto rf = fiddler->run(tr, placement);
  const auto ro = ondemand->run(tr, placement);
  EXPECT_LT(rf.decode_s, ro.decode_s);
}

TEST_F(FiddlerTest, GpuAndCpuExpertsOverlapWithinLayer) {
  // One resident + one CPU expert per layer: layer time should be close to
  // the CPU path alone (GPU expert hides under it), far below the sum.
  const auto tr = fixed_trace(cfg_, 1, 4, {0, 5});
  const auto placement = prefix_placement(cfg_, 2);
  const auto engine = core::make_fiddler(costs_);
  const auto r = engine->run(tr, placement);
  const double cpu_path = costs_.activations_d2h(1) + costs_.expert_cpu() +
                          costs_.activations_h2d(1);
  const double per_layer = r.decode_s / (4.0 * cfg_.n_layers);
  EXPECT_LT(per_layer, costs_.nonmoe_gpu(5) + cpu_path * 1.10);
}

TEST_F(FiddlerTest, StaticPlacementUnchangedByRun) {
  const auto tr = fixed_trace(cfg_, 2, 4, {6, 7});
  const auto placement = prefix_placement(cfg_, 2);
  const auto engine = core::make_fiddler(costs_);
  engine->run(tr, placement);
  // Fiddler never reallocates: residents still 0..1 in every layer.
  for (int l = 0; l < cfg_.n_layers; ++l) {
    EXPECT_TRUE(placement.on_gpu(l, 0));
    EXPECT_TRUE(placement.on_gpu(l, 1));
    EXPECT_FALSE(placement.on_gpu(l, 6));
  }
}

TEST_F(FiddlerTest, DecodeSlowerWhenMoreExpertsMiss) {
  const auto placement = prefix_placement(cfg_, 2);
  const auto engine = core::make_fiddler(costs_);
  const auto one_miss = engine->run(fixed_trace(cfg_, 1, 4, {0, 5}), placement);
  const auto two_miss = engine->run(fixed_trace(cfg_, 1, 4, {4, 5}), placement);
  EXPECT_LT(one_miss.decode_s, two_miss.decode_s);
}

}  // namespace
}  // namespace daop::engines
