#include "engines/batch.hpp"

#include <gtest/gtest.h>

#include "../testing/helpers.hpp"
#include "cache/calibration.hpp"
#include "common/check.hpp"
#include "core/daop_batch.hpp"
#include "core/daop_engine.hpp"
#include "data/trace_generator.hpp"
#include "engines/fiddler.hpp"
#include "sim/device.hpp"

namespace daop::engines {
namespace {

using core::run_daop_batch;
using daop::testing::prefix_placement;
using daop::testing::small_mixtral;

class BatchTest : public ::testing::Test {
 protected:
  BatchTest()
      : cfg_(small_mixtral()),
        cm_(sim::a6000_i9_platform()),
        costs_(cfg_, cm_) {}

  // Generations must be long enough for DAOP's prefill swap migrations to
  // amortize (the same condition the paper's in/out-256 setting satisfies).
  std::vector<data::SequenceTrace> make_batch(int b, int prompt = 16,
                                              int gen = 96) {
    const data::TraceGenerator gen_obj(data::c4(), cfg_.n_layers,
                                       cfg_.n_experts, cfg_.top_k, 47);
    std::vector<data::SequenceTrace> traces;
    for (int i = 0; i < b; ++i) traces.push_back(gen_obj.generate(i, prompt, gen));
    return traces;
  }

  cache::Placement calibrated(double ecr) {
    const data::TraceGenerator calib(data::sharegpt_calibration(),
                                     cfg_.n_layers, cfg_.n_experts, cfg_.top_k,
                                     13);
    return cache::init_placement_calibrated(
        cfg_.n_layers, cfg_.n_experts, ecr,
        cache::calibrate_activation_counts(calib, 6));
  }

  model::ModelConfig cfg_;
  sim::CostModel cm_;
  model::OpCosts costs_;
};

TEST_F(BatchTest, BatchOfOneMatchesSingleSequenceFiddlerClosely) {
  const auto traces = make_batch(1);
  const auto placement = calibrated(0.469);
  const auto rb = run_fiddler_batch(costs_, traces, placement);
  FiddlerEngine single(costs_);
  const auto rs = single.run(traces[0], placement);
  // The batched path merges per-layer CPU experts into one transfer pair,
  // so times agree only approximately.
  EXPECT_NEAR(rb.total_s, rs.total_s, rs.total_s * 0.05);
  EXPECT_EQ(rb.tokens_generated, rs.generated_tokens);
}

TEST_F(BatchTest, AggregateThroughputGrowsWithBatch) {
  const auto placement = calibrated(0.469);
  double prev_agg = 0.0;
  for (int b : {1, 2, 4, 8}) {
    const auto traces = make_batch(b);
    const auto rf = run_fiddler_batch(costs_, traces, placement);
    EXPECT_GT(rf.tokens_per_s, prev_agg) << "batch " << b;
    prev_agg = rf.tokens_per_s;
  }
}

TEST_F(BatchTest, PerSequenceRateDegradesWithBatch) {
  const auto placement = calibrated(0.469);
  const auto r1 = run_fiddler_batch(costs_, make_batch(1), placement);
  const auto r8 = run_fiddler_batch(costs_, make_batch(8), placement);
  EXPECT_LT(r8.per_seq_tokens_per_s, r1.per_seq_tokens_per_s);
  // But batching is worth it in aggregate.
  EXPECT_GT(r8.tokens_per_s, r1.tokens_per_s);
}

TEST_F(BatchTest, DaopBeatsFiddlerAtBatchOne) {
  // Enable prediction from layer 1 (the 4-layer test model sits below the
  // paper's min_predict_layer of 5, which would disable pre-calculation).
  // DAOP's mechanisms are batch-1 optimizations: at larger batches the
  // serialized CPU pre-calculation of batch tokens stops amortizing (see
  // bench_ext_batching), so the win is asserted where the paper claims it.
  core::DaopConfig dc;
  dc.min_predict_layer = 1;
  const auto placement = calibrated(0.469);
  const auto traces = make_batch(1);
  const auto rf = run_fiddler_batch(costs_, traces, placement);
  const auto rd = run_daop_batch(costs_, dc, traces, placement);
  EXPECT_GT(rd.tokens_per_s, rf.tokens_per_s);
}

TEST_F(BatchTest, DaopAdvantageDilutesAsBatchGrows) {
  // One shared cache cannot be sequence-specific for everyone: DAOP's edge
  // over Fiddler shrinks as the batch unions more activation patterns.
  core::DaopConfig dc;
  dc.min_predict_layer = 1;
  const auto placement = calibrated(0.469);
  auto edge = [&](int b) {
    const auto traces = make_batch(b);
    const auto rf = run_fiddler_batch(costs_, traces, placement);
    const auto rd = run_daop_batch(costs_, dc, traces, placement);
    return rd.tokens_per_s / rf.tokens_per_s;
  };
  EXPECT_GT(edge(1), edge(8));
}

TEST_F(BatchTest, Deterministic) {
  const auto placement = calibrated(0.5);
  const auto traces = make_batch(3);
  const auto a = run_daop_batch(costs_, core::DaopConfig{}, traces, placement);
  const auto b = run_daop_batch(costs_, core::DaopConfig{}, traces, placement);
  EXPECT_DOUBLE_EQ(a.total_s, b.total_s);
  EXPECT_EQ(a.counters.cpu_expert_execs, b.counters.cpu_expert_execs);
}

TEST_F(BatchTest, RejectsHeterogeneousBatch) {
  auto traces = make_batch(2);
  traces[1] = make_batch(1, 16, 20)[0];  // different gen_len
  const auto placement = calibrated(0.5);
  EXPECT_THROW(run_fiddler_batch(costs_, traces, placement), CheckError);
  EXPECT_THROW(run_daop_batch(costs_, core::DaopConfig{}, traces, placement),
               CheckError);
}

// The per-session extensions have no batched model: naming the field beats
// silently running without it.
TEST_F(BatchTest, RejectsPerSessionExtensionsByName) {
  const auto traces = make_batch(2, 16, 8);
  const auto placement = calibrated(0.469);
  const auto error = [&](const core::DaopConfig& dc) -> std::string {
    try {
      (void)run_daop_batch(costs_, dc, traces, placement);
    } catch (const CheckError& e) {
      return e.what();
    }
    return "no error";
  };
  core::DaopConfig dc;
  dc.cpu_quant_bits = 4;
  EXPECT_NE(error(dc).find("DaopConfig.cpu_quant_bits"), std::string::npos);
  dc = {};
  dc.decode_realloc_interval = 4;
  EXPECT_NE(error(dc).find("DaopConfig.decode_realloc_interval"),
            std::string::npos);
  dc = {};
  dc.stale_precalc_factor = 0.5;
  EXPECT_NE(error(dc).find("DaopConfig.stale_precalc_factor"),
            std::string::npos);
}

// Decisions come from the shared DecodePolicy, so the batch plane honours
// adaptive skipping and the mispredict policy like the engine does.
TEST_F(BatchTest, HonoursSkipMarginAndMispredictPolicy) {
  const auto traces = make_batch(3, 16, 16);
  const auto placement = calibrated(0.469);
  core::DaopConfig base;
  base.min_predict_layer = 1;
  const auto r = run_daop_batch(costs_, base, traces, placement);
  EXPECT_EQ(r.counters.skipped_experts, 0);

  core::DaopConfig skip = base;
  skip.skip_top1_margin = 0.7;
  EXPECT_GT(run_daop_batch(costs_, skip, traces, placement)
                .counters.skipped_experts,
            0);

  core::DaopConfig fallback = base;
  fallback.mispredict_policy = core::MispredictPolicy::GracefulFallback;
  const auto rf = run_daop_batch(costs_, fallback, traces, placement);
  ASSERT_GT(r.counters.mispredictions, 0);
  EXPECT_EQ(rf.counters.mispredictions, r.counters.mispredictions);
  // Every fallback is a degradation and one fewer exact CPU execution.
  EXPECT_GT(rf.counters.degradations, r.counters.degradations);
  EXPECT_LT(rf.counters.cpu_expert_execs, r.counters.cpu_expert_execs);
}

TEST_F(BatchTest, EnergyWithinPhysicalBounds) {
  const auto placement = calibrated(0.469);
  for (int b : {1, 4}) {
    const auto traces = make_batch(b);
    for (const auto& r :
         {run_fiddler_batch(costs_, traces, placement),
          run_daop_batch(costs_, core::DaopConfig{}, traces, placement)}) {
      const auto& p = cm_.platform();
      const double min_power =
          p.gpu.idle_power_w + p.cpu.idle_power_w + p.base_power_w;
      const double max_power = p.gpu.active_power_w + p.cpu.active_power_w +
                               p.base_power_w + 15.0;
      EXPECT_GE(r.energy.avg_power_w, min_power * 0.999) << r.engine;
      EXPECT_LE(r.energy.avg_power_w, max_power * 1.001) << r.engine;
      EXPECT_GT(r.tokens_per_kj, 0.0) << r.engine;
    }
  }
}

TEST_F(BatchTest, TimeAccountingConsistent) {
  const auto placement = calibrated(0.469);
  const auto traces = make_batch(3);
  const auto r = run_daop_batch(costs_, core::DaopConfig{}, traces, placement);
  EXPECT_GT(r.prefill_s, 0.0);
  EXPECT_GT(r.total_s, r.prefill_s);
  EXPECT_EQ(r.batch, 3);
  EXPECT_EQ(r.tokens_generated, 3 * traces[0].gen_len);
  EXPECT_NEAR(r.per_seq_tokens_per_s * 3.0, r.tokens_per_s, 1e-9);
}

TEST_F(BatchTest, CountersConsistent) {
  const auto placement = calibrated(0.469);
  const auto traces = make_batch(4);
  const auto r = run_fiddler_batch(costs_, traces, placement);
  // Decode hit/miss counts every (sequence, layer, selection).
  const auto prefill_counts = traces[0].activation_counts(data::Phase::Prefill);
  long long decode_uses =
      4LL * traces[0].gen_len * cfg_.n_layers * cfg_.top_k;
  EXPECT_GE(r.counters.cache_hits + r.counters.cache_misses, decode_uses);
  EXPECT_EQ(r.counters.expert_migrations, 0);  // Fiddler never migrates
}

}  // namespace
}  // namespace daop::engines
