// Edge cases across the stack: degenerate capacities, top-1 routing,
// zero-generation sequences, single-layer models — configurations a
// downstream user will eventually feed in.
#include <gtest/gtest.h>

#include "../testing/helpers.hpp"
#include "core/daop_engine.hpp"
#include "core/daop_executor.hpp"
#include "data/gate_bias.hpp"
#include "data/trace_generator.hpp"
#include "engines/fetch_engine.hpp"
#include "eval/speed.hpp"

namespace daop {
namespace {

using daop::testing::fixed_trace;
using daop::testing::prefix_placement;
using daop::testing::small_mixtral;

class EdgeCases : public ::testing::Test {
 protected:
  EdgeCases()
      : cfg_(small_mixtral()),
        cm_(sim::a6000_i9_platform()),
        costs_(cfg_, cm_) {}

  model::ModelConfig cfg_;
  sim::CostModel cm_;
  model::OpCosts costs_;
};

TEST_F(EdgeCases, ZeroCapacityCacheEverythingOnCpu) {
  // ECR 0: no GPU expert slots at all. Fiddler/DAOP must run everything on
  // the CPU; fetch engines must stream per use without residency.
  const auto tr = fixed_trace(cfg_, 2, 3, {0, 1});
  const cache::Placement placement(cfg_.n_layers, cfg_.n_experts);

  const auto rf = core::make_fiddler(costs_)->run(tr, placement);
  EXPECT_EQ(rf.counters.gpu_expert_execs, 0);
  EXPECT_GT(rf.counters.cpu_expert_execs, 0);

  core::DaopEngine daop(costs_);
  const auto rd = daop.run(tr, placement);
  EXPECT_EQ(rd.counters.prefill_swaps, 0);  // nothing to swap into
  EXPECT_EQ(rd.counters.degradations, 0);   // no GPU substitutes exist
  EXPECT_GT(rd.counters.cpu_expert_execs, 0);

  auto ondemand = engines::make_moe_ondemand(costs_);
  const auto ro = ondemand->run(tr, placement);
  EXPECT_EQ(ro.counters.cache_hits, 0);
  EXPECT_GT(ro.counters.expert_migrations, 0);
}

TEST_F(EdgeCases, ZeroGenerationSequences) {
  const auto tr = fixed_trace(cfg_, 4, 0, {0, 1});
  const auto placement = prefix_placement(cfg_, 4);
  for (auto kind : eval::paper_baseline_engines()) {
    auto engine = eval::make_engine(kind, costs_);
    const auto r = engine->run(tr, placement);
    EXPECT_EQ(r.generated_tokens, 0) << engine->name();
    EXPECT_GT(r.prefill_s, 0.0) << engine->name();
    EXPECT_DOUBLE_EQ(r.decode_s, 0.0) << engine->name();
  }
}

TEST_F(EdgeCases, TopOneRouting) {
  model::ModelConfig cfg = small_mixtral();
  cfg.top_k = 1;
  const model::OpCosts costs(cfg, cm_);
  const data::TraceGenerator gen(data::c4(), cfg.n_layers, cfg.n_experts,
                                 cfg.top_k, 3);
  const auto tr = gen.generate(0, 8, 8);
  const auto placement = prefix_placement(cfg, 4);
  for (auto kind : {eval::EngineKind::Fiddler, eval::EngineKind::Daop,
                    eval::EngineKind::MoEOnDemand}) {
    auto engine = eval::make_engine(kind, costs);
    const auto r = engine->run(tr, placement);
    EXPECT_GT(r.tokens_per_s, 0.0) << engine->name();
    // With top-1 routing, graceful degradation's "both on CPU" case never
    // arises in DAOP's plan stage.
    if (kind == eval::EngineKind::Daop) {
      EXPECT_EQ(r.counters.degradations, 0);
    }
  }
}

TEST_F(EdgeCases, SingleLayerModel) {
  model::ModelConfig cfg = small_mixtral(1);
  const model::OpCosts costs(cfg, cm_);
  const data::TraceGenerator gen(data::c4(), 1, cfg.n_experts, cfg.top_k, 4);
  const auto tr = gen.generate(0, 4, 4);
  cache::Placement placement(1, cfg.n_experts);
  placement.set_capacity(0, 4);
  for (int e = 0; e < 4; ++e) placement.move_to_gpu(0, e);
  // No "next layer" exists: DAOP must never plan a pre-calculation.
  core::DaopConfig dc;
  dc.min_predict_layer = 1;
  core::DaopEngine daop(costs, dc);
  const auto r = daop.run(tr, placement);
  EXPECT_EQ(r.counters.predictions, 0);
  EXPECT_GT(r.tokens_per_s, 0.0);
}

TEST_F(EdgeCases, FunctionalTopOneModel) {
  model::ModelConfig cfg = model::tiny_mixtral();
  cfg.top_k = 1;
  const model::FunctionalModel fm(cfg, 5);
  const auto prompt = data::make_prompt(cfg.vocab_size, 8, 6, 0);
  const model::OfficialDecoder official(fm);
  const auto ref = official.generate(prompt, 8);
  EXPECT_EQ(ref.size(), 8U);

  cache::Placement placement(cfg.n_layers, cfg.n_experts);
  for (int l = 0; l < cfg.n_layers; ++l) {
    placement.set_capacity(l, 2);
    placement.move_to_gpu(l, 0);
    placement.move_to_gpu(l, 1);
  }
  core::DaopFunctionalExecutor daop(fm);
  const auto got = daop.generate(prompt, 8, placement);
  EXPECT_EQ(got.size(), 8U);
}

TEST_F(EdgeCases, PromptOfLengthOne) {
  const data::TraceGenerator gen(data::c4(), cfg_.n_layers, cfg_.n_experts,
                                 cfg_.top_k, 6);
  const auto tr = gen.generate(0, 1, 4);
  const auto placement = prefix_placement(cfg_, 4);
  core::DaopEngine daop(costs_);
  const auto r = daop.run(tr, placement);
  EXPECT_EQ(r.prompt_tokens, 1);
  EXPECT_GT(r.tokens_per_s, 0.0);
}

TEST_F(EdgeCases, SkipMarginWithTopOneIsNoop) {
  model::ModelConfig cfg = small_mixtral();
  cfg.top_k = 1;
  const model::OpCosts costs(cfg, cm_);
  const data::TraceGenerator gen(data::c4(), cfg.n_layers, cfg.n_experts, 1, 8);
  const auto tr = gen.generate(0, 4, 6);
  const auto placement = prefix_placement(cfg, 4);
  core::DaopConfig dc;
  dc.skip_top1_margin = 0.5;
  core::DaopEngine daop(costs, dc);
  const auto r = daop.run(tr, placement);
  EXPECT_EQ(r.counters.skipped_experts, 0);
}

TEST_F(EdgeCases, EngineHandlesEveryExpertColdAfterDrift) {
  // A trace whose decode selections avoid every resident expert entirely.
  const auto tr = daop::testing::alternating_trace(cfg_, 2, 6, {4, 5}, {6, 7});
  const auto placement = prefix_placement(cfg_, 2);
  for (auto kind : eval::paper_baseline_engines()) {
    auto engine = eval::make_engine(kind, costs_);
    const auto r = engine->run(tr, placement);
    EXPECT_GT(r.total_s, 0.0) << engine->name();
  }
}

}  // namespace
}  // namespace daop
