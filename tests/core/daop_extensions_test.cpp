// Tests for the DAOP extensions beyond the paper: quantized CPU expert
// execution (cpu_quant_bits) and decode-phase re-allocation
// (decode_realloc_interval), in both execution planes.
#include <gtest/gtest.h>

#include "../testing/helpers.hpp"
#include "cache/placement.hpp"
#include "core/daop_engine.hpp"
#include "core/daop_executor.hpp"
#include "data/gate_bias.hpp"
#include "eval/accuracy.hpp"
#include "model/config.hpp"
#include "sim/device.hpp"

namespace daop::core {
namespace {

using daop::testing::alternating_trace;
using daop::testing::fixed_trace;
using daop::testing::prefix_placement;
using daop::testing::small_mixtral;

// ---- Performance plane ----

class DaopExtensionsPerfTest : public ::testing::Test {
 protected:
  DaopExtensionsPerfTest()
      : cfg_(small_mixtral()),
        cm_(sim::a6000_i9_platform()),
        costs_(cfg_, cm_) {}

  model::ModelConfig cfg_;
  sim::CostModel cm_;
  model::OpCosts costs_;
};

TEST_F(DaopExtensionsPerfTest, QuantizedCpuPathIsFaster) {
  const auto tr = fixed_trace(cfg_, 2, 8, {0, 5});
  const auto placement = prefix_placement(cfg_, 2);
  DaopConfig fp;
  fp.enable_seq_allocation = false;
  fp.min_predict_layer = 1;
  DaopConfig q4 = fp;
  q4.cpu_quant_bits = 4;
  const auto rf = DaopEngine(costs_, fp).run(tr, placement);
  const auto rq = DaopEngine(costs_, q4).run(tr, placement);
  EXPECT_LT(rq.decode_s, rf.decode_s);
  // The CPU path is ~memory-bound: 4-bit cuts its time by roughly the byte
  // ratio, which shows up whenever CPU experts execute.
  EXPECT_GT(rf.decode_s / rq.decode_s, 1.1);
}

TEST_F(DaopExtensionsPerfTest, DecodeReallocFollowsDrift) {
  // Decode alternates between {4,5} and {6,7} every token, so a frozen
  // prefill placement misses half the steps forever. With re-allocation
  // every 4 tokens the cache converges to... still churn (alternation is
  // adversarial), but with a LONG phase the cache adapts:
  model::ModelConfig cfg = small_mixtral();
  const sim::CostModel cm(sim::a6000_i9_platform());
  const model::OpCosts costs(cfg, cm);

  // Build a phase-change trace: decode starts on {4,5} (matching prefill),
  // then permanently moves to {6,7}. The post-change horizon must be long
  // enough for the ~40 ms swap migrations to amortize — re-allocation is a
  // long-drift optimization, not a churn optimization.
  const int gen = 48;
  const int change_at = 12;
  auto tr = fixed_trace(cfg, 4, gen, {4, 5});
  const auto late = fixed_trace(cfg, 4, gen, {6, 7});
  for (int l = 0; l < cfg.n_layers; ++l) {
    for (int t = change_at; t < gen; ++t) {
      const data::TokenRouting cell = late.at(data::Phase::Decode, l, t);
      tr.set_cell(data::Phase::Decode, l, t, cell.scores, cell.pred_scores);
    }
  }
  const auto placement = prefix_placement(cfg, 2);

  DaopConfig frozen;
  frozen.min_predict_layer = 1;
  DaopConfig realloc = frozen;
  realloc.decode_realloc_interval = 6;

  const auto rf = DaopEngine(costs, frozen).run(tr, placement);
  const auto rr = DaopEngine(costs, realloc).run(tr, placement);
  EXPECT_EQ(rf.counters.decode_swaps, 0);
  EXPECT_GT(rr.counters.decode_swaps, 0);
  // After the phase change the re-allocating engine serves {6,7} from the
  // GPU; the frozen one pays the CPU path for the rest of the sequence.
  EXPECT_LT(rr.decode_s, rf.decode_s);
}

TEST_F(DaopExtensionsPerfTest, ReallocOffMatchesBaselineExactly) {
  const auto tr = fixed_trace(cfg_, 2, 6, {0, 5});
  const auto placement = prefix_placement(cfg_, 2);
  DaopConfig a;
  a.min_predict_layer = 1;
  DaopConfig b = a;
  b.decode_realloc_interval = 0;  // explicit off == default
  const auto ra = DaopEngine(costs_, a).run(tr, placement);
  const auto rb = DaopEngine(costs_, b).run(tr, placement);
  EXPECT_DOUBLE_EQ(ra.total_s, rb.total_s);
}

TEST_F(DaopExtensionsPerfTest, AdaptiveSkippingReducesWork) {
  // All tokens have a decisive top-1 (fixed_trace scores: 10 vs 9 -> top-1
  // weight ~0.73); margin 0.7 skips the second expert everywhere, margin
  // 0.9 never does.
  const auto tr = fixed_trace(cfg_, 2, 6, {0, 5});
  const auto placement = prefix_placement(cfg_, 2);
  DaopConfig base;
  base.enable_seq_allocation = false;
  base.min_predict_layer = 1;

  DaopConfig skip = base;
  skip.skip_top1_margin = 0.70;
  const auto rs = DaopEngine(costs_, skip).run(tr, placement);
  EXPECT_GT(rs.counters.skipped_experts, 0);
  // Expert 5 (the CPU one, ranked second) is skipped throughout decode; the
  // only CPU executions left are its prefill runs (one per layer).
  EXPECT_EQ(rs.counters.cpu_expert_execs, cfg_.n_layers);

  DaopConfig no_skip = base;
  no_skip.skip_top1_margin = 0.90;
  const auto rn = DaopEngine(costs_, no_skip).run(tr, placement);
  EXPECT_EQ(rn.counters.skipped_experts, 0);
  EXPECT_LT(rs.decode_s, rn.decode_s);
}

// ---- Functional plane ----

class DaopExtensionsFuncTest : public ::testing::Test {
 protected:
  DaopExtensionsFuncTest() : model_(model::tiny_mixtral(), 17) {}

  cache::Placement placement_with_ecr(double ecr) const {
    const auto& cfg = model_.config();
    const auto calib = eval::calibrate_functional_counts(
        model_, data::sharegpt_calibration(), 4, 12, 12, 5);
    return cache::init_placement_calibrated(cfg.n_layers, cfg.n_experts, ecr,
                                            calib);
  }

  model::FunctionalModel model_;
};

TEST_F(DaopExtensionsFuncTest, QuantizedCpuExecsAreCountedAndApproximate) {
  const auto& cfg = model_.config();
  const auto prompt = data::make_prompt(cfg.vocab_size, 12, 9, 0);
  const auto bias = data::make_gate_bias(data::c4(), cfg.n_layers,
                                         cfg.n_experts, 9, 0, 12, 12 + 17);
  const auto placement = placement_with_ecr(0.25);

  DaopConfig q8;
  q8.cpu_quant_bits = 8;
  DaopFunctionalExecutor daop_q(model_, q8);
  FunctionalRunStats stats;
  const auto got_q = daop_q.generate(prompt, 16, placement, bias, &stats);
  EXPECT_GT(stats.quantized_execs, 0);

  DaopFunctionalExecutor daop_fp(model_);
  FunctionalRunStats stats_fp;
  const auto got_fp = daop_fp.generate(prompt, 16, placement, bias, &stats_fp);
  EXPECT_EQ(stats_fp.quantized_execs, 0);
  // int8 grouped quantization should track full precision closely: the two
  // runs agree on most tokens (identical routing decisions up to tiny logit
  // perturbations).
  int agree = 0;
  for (std::size_t i = 0; i < got_q.size(); ++i) {
    if (got_q[i] == got_fp[i]) ++agree;
  }
  EXPECT_GT(agree, static_cast<int>(got_q.size()) / 2);
}

TEST_F(DaopExtensionsFuncTest, QuantizationDoesNotTouchGpuResidentMath) {
  // At ECR 100% there are no CPU executions, so enabling quantization must
  // not change a single token.
  const auto& cfg = model_.config();
  const auto prompt = data::make_prompt(cfg.vocab_size, 12, 9, 1);
  const auto bias = data::make_gate_bias(data::c4(), cfg.n_layers,
                                         cfg.n_experts, 9, 1, 12, 12 + 13);
  const auto placement = placement_with_ecr(1.0);
  DaopConfig q4;
  q4.cpu_quant_bits = 4;
  DaopFunctionalExecutor daop_q(model_, q4);
  DaopFunctionalExecutor daop_fp(model_);
  FunctionalRunStats stats;
  EXPECT_EQ(daop_q.generate(prompt, 12, placement, bias, &stats),
            daop_fp.generate(prompt, 12, placement, bias));
  EXPECT_EQ(stats.quantized_execs, 0);
}

TEST_F(DaopExtensionsFuncTest, DecodeReallocSwapsAndStaysExactWhenApproxOff) {
  // Re-allocation only relocates weights; with precalc/degradation off the
  // output must still equal the official model.
  const auto& cfg = model_.config();
  const auto prompt = data::make_prompt(cfg.vocab_size, 12, 9, 2);
  const auto bias = data::make_gate_bias(data::gsm8k(), cfg.n_layers,
                                         cfg.n_experts, 9, 2, 12, 12 + 21);
  const model::OfficialDecoder official(model_);
  const auto ref = official.generate(prompt, 20, bias);

  DaopConfig dc;
  dc.enable_precalc = false;
  dc.enable_degradation = false;
  dc.mispredict_policy = MispredictPolicy::RecomputeExact;
  dc.decode_realloc_interval = 5;
  DaopFunctionalExecutor daop(model_, dc);
  FunctionalRunStats stats;
  const auto got =
      daop.generate(prompt, 20, placement_with_ecr(0.375), bias, &stats);
  EXPECT_EQ(ref, got);
  EXPECT_GT(stats.decode_swaps, 0);
}

TEST_F(DaopExtensionsFuncTest, ReallocReducesApproximationUnderDrift) {
  // GSM8K-style drift: re-allocation should raise the exact-execution
  // fraction relative to the frozen placement (the §VI-B fix).
  const auto& cfg = model_.config();
  const auto placement = placement_with_ecr(0.375);

  auto run = [&](int interval) {
    FunctionalRunStats total;
    DaopConfig dc;
    dc.decode_realloc_interval = interval;
    DaopFunctionalExecutor daop(model_, dc);
    for (int s = 0; s < 6; ++s) {
      const auto prompt = data::make_prompt(cfg.vocab_size, 12, 31, s);
      const auto bias = data::make_gate_bias(data::gsm8k(), cfg.n_layers,
                                             cfg.n_experts, 31, s, 12,
                                             12 + 41);
      FunctionalRunStats st;
      daop.generate(prompt, 40, placement, bias, &st);
      total.decode_expert_uses += st.decode_expert_uses;
      total.exact_execs += st.exact_execs;
    }
    return static_cast<double>(total.exact_execs) /
           static_cast<double>(total.decode_expert_uses);
  };

  const double frozen = run(0);
  const double realloc = run(8);
  EXPECT_GT(realloc, frozen);
}

}  // namespace
}  // namespace daop::core
