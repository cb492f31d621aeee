#include "core/daop_engine.hpp"

#include <gtest/gtest.h>

#include "../testing/helpers.hpp"
#include "cache/calibration.hpp"
#include "data/trace_generator.hpp"
#include "sim/device.hpp"

namespace daop::core {
namespace {

using daop::testing::fixed_trace;
using daop::testing::prefix_placement;
using daop::testing::small_mixtral;

class DaopEngineTest : public ::testing::Test {
 protected:
  DaopEngineTest()
      : cfg_(small_mixtral()),
        cm_(sim::a6000_i9_platform()),
        costs_(cfg_, cm_) {}

  DaopConfig no_alloc_predict_all() const {
    DaopConfig dc;
    dc.enable_seq_allocation = false;
    dc.min_predict_layer = 1;
    return dc;
  }

  model::ModelConfig cfg_;
  sim::CostModel cm_;
  model::OpCosts costs_;
};

TEST_F(DaopEngineTest, FullEcrRunsEntirelyOnGpu) {
  const auto tr = fixed_trace(cfg_, 4, 6, {3, 6});
  const auto placement = prefix_placement(cfg_, cfg_.n_experts);
  DaopEngine engine(costs_);
  const auto r = engine.run(tr, placement);
  EXPECT_EQ(r.counters.cpu_expert_execs, 0);
  EXPECT_EQ(r.counters.expert_migrations, 0);
  EXPECT_EQ(r.counters.cache_misses, 0);
  EXPECT_EQ(r.counters.degradations, 0);
}

TEST_F(DaopEngineTest, Algorithm1SwapsHotExpertInDuringPrefill) {
  // Selected experts {4,5} live on the CPU; Algorithm 1 must swap them in
  // during prefill so the decode phase hits.
  const auto tr = fixed_trace(cfg_, 8, 4, {4, 5});
  const auto placement = prefix_placement(cfg_, 2);  // residents {0,1}
  DaopConfig dc;
  dc.min_predict_layer = 1;
  DaopEngine engine(costs_, dc);
  const auto r = engine.run(tr, placement);
  EXPECT_EQ(r.counters.prefill_swaps, 2 * cfg_.n_layers);
  EXPECT_EQ(r.counters.expert_migrations, 2 * cfg_.n_layers);
  // Decode: all selected experts now resident.
  EXPECT_EQ(r.counters.mispredictions, 0);
  EXPECT_EQ(r.counters.cpu_expert_execs,
            2 * cfg_.n_layers);  // prefill executed at old locations
}

TEST_F(DaopEngineTest, PrecalcRunsPredictedCpuExperts) {
  // No allocation; expert 5 stays on CPU and is predicted correctly.
  const auto tr = fixed_trace(cfg_, 2, 4, {0, 5});
  const auto placement = prefix_placement(cfg_, 2);
  DaopEngine engine(costs_, no_alloc_predict_all());
  const auto r = engine.run(tr, placement);
  EXPECT_GT(r.counters.predictions, 0);
  EXPECT_EQ(r.counters.mispredictions, 0);
  EXPECT_GT(r.counters.cpu_expert_execs, 0);
}

TEST_F(DaopEngineTest, PrecalcOverlapBeatsFiddler) {
  const auto tr = fixed_trace(cfg_, 2, 8, {0, 5});
  const auto placement = prefix_placement(cfg_, 2);
  DaopEngine daop(costs_, no_alloc_predict_all());
  const auto rd = daop.run(tr, placement);
  const auto rf = make_fiddler(costs_)->run(tr, placement);
  EXPECT_LT(rd.decode_s, rf.decode_s);
}

TEST_F(DaopEngineTest, GracefulDegradationSubstitutesSecondCpuExpert) {
  // Both selected experts on CPU; degradation replaces the lower-scored one
  // with a GPU-resident expert.
  const auto tr = fixed_trace(cfg_, 2, 4, {4, 5});
  const auto placement = prefix_placement(cfg_, 2);
  DaopEngine engine(costs_, no_alloc_predict_all());
  const auto r = engine.run(tr, placement);
  EXPECT_GT(r.counters.degradations, 0);

  DaopConfig no_degrade = no_alloc_predict_all();
  no_degrade.enable_degradation = false;
  DaopEngine engine2(costs_, no_degrade);
  const auto r2 = engine2.run(tr, placement);
  EXPECT_EQ(r2.counters.degradations, 0);
  // Without degradation, both CPU experts execute on the CPU every step.
  EXPECT_GT(r2.counters.cpu_expert_execs, r.counters.cpu_expert_execs);
  EXPECT_GE(r2.decode_s, r.decode_s);
}

TEST_F(DaopEngineTest, MispredictionDetectedAndHandled) {
  // Predictions point at {6,7} but the true selection is {0,5}: expert 5 is
  // a CPU-resident mispredict every step (layers >= 1).
  const auto tr = fixed_trace(cfg_, 2, 4, {0, 5}, {6, 7});
  const auto placement = prefix_placement(cfg_, 2);

  DaopConfig recompute = no_alloc_predict_all();
  recompute.mispredict_policy = MispredictPolicy::RecomputeExact;
  DaopEngine engine(costs_, recompute);
  const auto r = engine.run(tr, placement);
  EXPECT_GT(r.counters.mispredictions, 0);

  DaopConfig fallback = no_alloc_predict_all();
  fallback.mispredict_policy = MispredictPolicy::GracefulFallback;
  DaopEngine engine2(costs_, fallback);
  const auto r2 = engine2.run(tr, placement);
  EXPECT_EQ(r2.counters.mispredictions, r.counters.mispredictions);
  // The fallback substitutes GPU execution for the stalled CPU recompute.
  EXPECT_LT(r2.decode_s, r.decode_s);
  EXPECT_GT(r2.counters.degradations, 0);
}

TEST_F(DaopEngineTest, EarlyLayersUseInPlaceExecution) {
  // min_predict_layer = 5 on a 4-layer model: no predictions at all, so
  // pre-calculation and degradation never act and the run is Fiddler's
  // (synchronous CPU execution) bit for bit.
  const auto tr = fixed_trace(cfg_, 2, 4, {0, 5});
  const auto placement = prefix_placement(cfg_, 2);
  DaopConfig dc;
  dc.enable_seq_allocation = false;
  dc.min_predict_layer = 5;
  DaopEngine engine(costs_, dc);
  const auto r = engine.run(tr, placement);
  EXPECT_EQ(r.counters.predictions, 0);
  EXPECT_EQ(r.counters.degradations, 0);
  const auto rf = make_fiddler(costs_)->run(tr, placement);
  EXPECT_EQ(r.decode_s, rf.decode_s);
  EXPECT_EQ(r.total_s, rf.total_s);
  EXPECT_EQ(r.counters.cpu_expert_execs, rf.counters.cpu_expert_execs);
}

TEST_F(DaopEngineTest, DecodeWaitsForPrefillSwapTransfers) {
  // With a long swap queue and a trivially short prefill, decode must not
  // start before the swapped weights have arrived.
  const auto tr = fixed_trace(cfg_, 1, 1, {4, 5});
  const auto placement = prefix_placement(cfg_, 2);
  DaopConfig dc;
  dc.min_predict_layer = 1;
  DaopEngine engine(costs_, dc);
  const auto r = engine.run(tr, placement);
  EXPECT_EQ(r.counters.prefill_swaps, 2 * cfg_.n_layers);
  // 2 swaps x L layers serialized on PCIe.
  EXPECT_GE(r.prefill_s + r.decode_s,
            2 * cfg_.n_layers * costs_.expert_migration() * 0.95);
}

TEST_F(DaopEngineTest, DeterministicAcrossRuns) {
  const data::TraceGenerator gen(data::c4(), cfg_.n_layers, cfg_.n_experts,
                                 cfg_.top_k, 5);
  const auto tr = gen.generate(0, 16, 16);
  const auto calib = cache::calibrate_activation_counts(
      data::TraceGenerator(data::sharegpt_calibration(), cfg_.n_layers,
                           cfg_.n_experts, cfg_.top_k, 6),
      8);
  const auto placement =
      cache::init_placement_calibrated(cfg_.n_layers, cfg_.n_experts, 0.5,
                                       calib);
  DaopEngine e1(costs_);
  DaopEngine e2(costs_);
  const auto r1 = e1.run(tr, placement);
  const auto r2 = e2.run(tr, placement);
  EXPECT_DOUBLE_EQ(r1.total_s, r2.total_s);
  EXPECT_EQ(r1.counters.prefill_swaps, r2.counters.prefill_swaps);
  EXPECT_EQ(r1.counters.cpu_expert_execs, r2.counters.cpu_expert_execs);
}

TEST_F(DaopEngineTest, NameReflectsAblationState) {
  DaopEngine full(costs_);
  EXPECT_EQ(full.name(), "DAOP");
  DaopConfig dc;
  dc.enable_precalc = false;
  DaopEngine ablated(costs_, dc);
  EXPECT_NE(ablated.name(), "DAOP");
  EXPECT_NE(ablated.name().find("-precalc"), std::string::npos);
  // All three mechanisms off is the Fiddler baseline, by name too.
  EXPECT_EQ(DaopEngine(costs_, fiddler_config()).name(), "Fiddler");
  EXPECT_EQ(make_fiddler(costs_)->name(), "Fiddler");
}

TEST_F(DaopEngineTest, HigherEcrNeverSlower) {
  const data::TraceGenerator gen(data::c4(), cfg_.n_layers, cfg_.n_experts,
                                 cfg_.top_k, 11);
  const auto calib_gen =
      data::TraceGenerator(data::sharegpt_calibration(), cfg_.n_layers,
                           cfg_.n_experts, cfg_.top_k, 12);
  const auto calib = cache::calibrate_activation_counts(calib_gen, 8);
  double prev = 0.0;
  for (double ecr : {0.25, 0.5, 1.0}) {
    const auto placement = cache::init_placement_calibrated(
        cfg_.n_layers, cfg_.n_experts, ecr, calib);
    DaopEngine engine(costs_);
    double total = 0.0;
    for (int s = 0; s < 3; ++s) {
      total += engine.run(gen.generate(s, 32, 32), placement).total_s;
    }
    if (prev > 0.0) {
      EXPECT_LT(total, prev * 1.02);
    }
    prev = total;
  }
}

}  // namespace
}  // namespace daop::core
