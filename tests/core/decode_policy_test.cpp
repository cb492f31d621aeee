// Unit tests of the pure decode planner on hand-built placements and gates:
// every DecodeAction, the plan hand-off between layers, and the rules the
// planes rely on (misprediction charged once per plan, stand-ins are fresh
// GPU experts, stale discards need a GPU stand-in).
#include "core/decode_policy.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <utility>
#include <vector>

namespace daop::core {
namespace {

constexpr int kLayers = 3;
constexpr int kExperts = 8;
constexpr int kTopK = 2;

/// Experts 0..3 on the GPU at every layer (or none when `gpu` is 0).
cache::Placement gpu_prefix(int gpu = 4) {
  cache::Placement p(kLayers, kExperts);
  for (int l = 0; l < kLayers; ++l) {
    p.set_capacity(l, gpu);
    for (int e = 0; e < gpu; ++e) p.move_to_gpu(l, e);
  }
  return p;
}

/// Gate logits: the listed experts get the given score, the rest 0.
std::vector<float> logits(std::initializer_list<std::pair<int, float>> s) {
  std::vector<float> v(kExperts, 0.0F);
  for (const auto& [e, score] : s) v[static_cast<std::size_t>(e)] = score;
  return v;
}

DaopConfig predict_from_1() {
  DaopConfig c;
  c.min_predict_layer = 1;
  return c;
}

LayerDecision decide(DecodePolicy& p, const cache::Placement& placement,
                     int layer, const std::vector<int>& selected,
                     const std::vector<float>& scores,
                     std::span<const char> stale = {}) {
  return p.plan_layer(placement, layer, std::span<const int>(selected),
                      scores, stale);
}

const NextLayerPlan& plan(DecodePolicy& p, const cache::Placement& placement,
                          int layer, const std::vector<int>& predicted,
                          const std::vector<float>& scores) {
  return p.plan_next(placement, layer, std::span<const int>(predicted),
                     scores);
}

TEST(DecodePolicy, PredictsOnlyInsideTheConfiguredLayers) {
  DaopConfig c;
  c.min_predict_layer = 2;
  const DecodePolicy p(c, kLayers, kTopK);
  EXPECT_FALSE(p.predicts(1));
  EXPECT_TRUE(p.predicts(2));
  EXPECT_FALSE(p.predicts(3));  // past the last layer
  c.enable_precalc = false;
  EXPECT_FALSE(DecodePolicy(c, kLayers, kTopK).predicts(2));
}

TEST(DecodePolicy, WithoutAPlanCpuExpertsRunInPlace) {
  const cache::Placement placement = gpu_prefix();
  DecodePolicy p(predict_from_1(), kLayers, kTopK);
  const LayerDecision d =
      decide(p, placement, 0, {2, 5}, logits({{2, 3.0F}, {5, 2.0F}}));
  ASSERT_EQ(d.steps.size(), 2U);
  EXPECT_EQ(d.steps[0].action, DecodeAction::GpuHit);
  EXPECT_EQ(d.steps[0].exec, 2);
  EXPECT_EQ(d.steps[1].action, DecodeAction::InPlaceCpu);
  EXPECT_EQ(d.steps[1].exec, 5);
  EXPECT_FALSE(d.mispredicted);
  EXPECT_EQ(d.skipped, 0);
}

TEST(DecodePolicy, PrecalcIsCommittedAndThePlanIsConsumedOnce) {
  const cache::Placement placement = gpu_prefix();
  DecodePolicy p(predict_from_1(), kLayers, kTopK);
  const NextLayerPlan& np =
      plan(p, placement, 1, {2, 5}, logits({{2, 3.0F}, {5, 2.0F}}));
  EXPECT_TRUE(np.active);
  EXPECT_EQ(np.precalc, std::vector<int>{5});  // GPU-resident 2 needs none
  EXPECT_EQ(np.substitute, -1);

  const std::vector<float> gate = logits({{5, 3.0F}, {2, 2.0F}});
  LayerDecision d = decide(p, placement, 1, {5, 2}, gate);
  ASSERT_EQ(d.steps.size(), 2U);
  EXPECT_EQ(d.steps[0].action, DecodeAction::PrecalcCommit);
  EXPECT_EQ(d.steps[1].action, DecodeAction::GpuHit);
  EXPECT_FALSE(p.plan().active);

  // Without a new plan_next the next layer runs in place.
  d = decide(p, placement, 2, {5, 2}, gate);
  EXPECT_EQ(d.steps[0].action, DecodeAction::InPlaceCpu);
  EXPECT_FALSE(d.mispredicted);
}

TEST(DecodePolicy, DegradationSwapsTheLowerScoredOfTwoCpuPredictions) {
  const cache::Placement placement = gpu_prefix();
  const std::vector<float> pred =
      logits({{5, 4.0F}, {6, 3.0F}, {1, 2.5F}, {3, 2.0F}});
  DecodePolicy p(predict_from_1(), kLayers, kTopK);
  const NextLayerPlan& np = plan(p, placement, 1, {5, 6}, pred);
  EXPECT_EQ(np.precalc, std::vector<int>{5});
  EXPECT_EQ(np.dropped, 6);
  EXPECT_EQ(np.substitute, 1);  // best GPU expert by predicted score

  const LayerDecision d =
      decide(p, placement, 1, {6, 5}, logits({{6, 3.0F}, {5, 2.0F}}));
  ASSERT_EQ(d.steps.size(), 2U);
  EXPECT_EQ(d.steps[0].action, DecodeAction::Substitute);
  EXPECT_EQ(d.steps[0].exec, 1);
  EXPECT_EQ(d.steps[1].action, DecodeAction::PrecalcCommit);

  DaopConfig off = predict_from_1();
  off.enable_degradation = false;
  DecodePolicy q(off, kLayers, kTopK);
  const NextLayerPlan& full = plan(q, placement, 1, {5, 6}, pred);
  EXPECT_EQ(full.precalc, (std::vector<int>{5, 6}));
  EXPECT_EQ(full.dropped, -1);
}

TEST(DecodePolicy, MispredictionIsChargedOncePerPlanAndFollowsThePolicy) {
  const cache::Placement placement = gpu_prefix();
  // Gate: both selected experts are CPU-resident and were not predicted;
  // the best GPU experts by gate score are 3, then 2.
  const std::vector<float> gate =
      logits({{5, 5.0F}, {6, 4.0F}, {3, 2.0F}, {2, 1.0F}});
  const std::vector<float> pred = logits({{0, 2.0F}, {1, 1.0F}});

  DecodePolicy recompute(predict_from_1(), kLayers, kTopK);
  plan(recompute, placement, 1, {0, 1}, pred);
  LayerDecision d = decide(recompute, placement, 1, {5, 6}, gate);
  EXPECT_TRUE(d.mispredicted);
  ASSERT_EQ(d.steps.size(), 2U);
  EXPECT_EQ(d.steps[0].action, DecodeAction::Recompute);
  EXPECT_EQ(d.steps[1].action, DecodeAction::Recompute);

  DaopConfig c = predict_from_1();
  c.mispredict_policy = MispredictPolicy::GracefulFallback;
  DecodePolicy fallback(c, kLayers, kTopK);
  plan(fallback, placement, 1, {0, 1}, pred);
  d = decide(fallback, placement, 1, {5, 6}, gate);
  EXPECT_TRUE(d.mispredicted);
  ASSERT_EQ(d.steps.size(), 2U);
  EXPECT_EQ(d.steps[0].action, DecodeAction::Fallback);
  EXPECT_EQ(d.steps[0].exec, 3);
  // A stand-in is never reused within a layer.
  EXPECT_EQ(d.steps[1].action, DecodeAction::Fallback);
  EXPECT_EQ(d.steps[1].exec, 2);
}

TEST(DecodePolicy, StaleResultIsDiscardedOnlyWhenAGpuStandInExists) {
  const std::vector<float> gate = logits({{5, 3.0F}, {6, 2.0F}, {2, 1.0F}});
  std::vector<char> stale(kExperts, 0);
  stale[5] = 1;

  const cache::Placement placement = gpu_prefix();
  DecodePolicy p(predict_from_1(), kLayers, kTopK);
  plan(p, placement, 1, {5, 0}, logits({{5, 2.0F}, {0, 1.0F}}));
  LayerDecision d = decide(p, placement, 1, {5, 6}, gate, stale);
  ASSERT_EQ(d.steps.size(), 2U);
  EXPECT_EQ(d.steps[0].action, DecodeAction::StaleDiscard);
  EXPECT_EQ(d.steps[0].exec, 2);
  EXPECT_EQ(d.steps[1].action, DecodeAction::Recompute);

  // The mask is ignored for experts outside the plan, and a stale result
  // with no GPU expert to stand in is still committed.
  const cache::Placement all_cpu = gpu_prefix(0);
  plan(p, all_cpu, 1, {5, 6}, logits({{5, 2.0F}, {6, 1.0F}}));
  d = decide(p, all_cpu, 1, {5, 6}, gate, stale);
  EXPECT_EQ(d.steps[0].action, DecodeAction::PrecalcCommit);
  EXPECT_EQ(d.steps[1].action, DecodeAction::PrecalcCommit);
}

TEST(DecodePolicy, ConfidentTokensKeepOnlyTheirTopExpert) {
  const cache::Placement placement = gpu_prefix();
  DaopConfig c = predict_from_1();
  c.skip_top1_margin = 0.7;
  DecodePolicy p(c, kLayers, kTopK);
  const std::vector<float> confident = logits({{5, 5.0F}, {6, 0.0F}});
  // Both predictions on the CPU, but only the top one is pre-calculated, so
  // graceful degradation does not apply.
  const NextLayerPlan& np = plan(p, placement, 1, {5, 6}, confident);
  EXPECT_EQ(np.precalc, std::vector<int>{5});
  EXPECT_EQ(np.substitute, -1);

  LayerDecision d = decide(p, placement, 1, {5, 6}, confident);
  EXPECT_EQ(d.skipped, 1);
  ASSERT_EQ(d.steps.size(), 1U);
  EXPECT_EQ(d.steps[0].action, DecodeAction::PrecalcCommit);

  // An unconfident gate keeps both.
  d = decide(p, placement, 0, {5, 6}, logits({{5, 1.0F}, {6, 0.5F}}));
  EXPECT_EQ(d.skipped, 0);
  EXPECT_EQ(d.steps.size(), 2U);
}

}  // namespace
}  // namespace daop::core
