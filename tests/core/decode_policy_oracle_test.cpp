// Oracle test of the two DAOP planners against reference copies.
//
// `reference::DecodePolicy` and `reference::sequence_specific_swaps` are the
// straightforward forms of the §IV-C decode policy and of Algorithm 1: they
// copy the gate's ids into vectors, read residency through the checked
// Placement::on_gpu, search exclusions with std::find and std::stable_sort
// the swap candidates. The production planners read each layer's residency
// row in place and write into scratch sized at construction; every decision
// they make must equal the reference's.
//
// The grid covers top_k in {1, 2, 3, 4, 8} and E in {2, 4, 8, 16, 64}
// (top_k <= E) under five configurations: default, adaptive skipping at
// 0.6, GracefulFallback, degradation off and stale discard. Each trial draws
// a random placement (any per-layer GPU count, ties in the scores on some
// trials), then chains plan_next -> plan_layer over the layers with
// min_predict_layer 1, comparing every LayerDecision, every NextLayerPlan
// and every Algorithm 1 swap list.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "../testing/helpers.hpp"
#include "cache/placement.hpp"
#include "common/rng.hpp"
#include "core/allocation.hpp"
#include "core/decode_policy.hpp"
#include "data/routing_trace.hpp"
#include "tensor/ops.hpp"

namespace daop::core {
namespace reference {

struct NextLayerPlan {
  bool active = false;
  std::vector<int> precalc;
  int dropped = -1;
  int substitute = -1;
};

class DecodePolicy {
 public:
  DecodePolicy(const DaopConfig& config, int n_layers, int top_k)
      : config_(config), n_layers_(n_layers), top_k_(top_k) {
    const auto k = static_cast<std::size_t>(top_k);
    selected_.reserve(k);
    exclude_.reserve(2 * k);
    predicted_.reserve(k);
    weights_.reserve(k);
    steps_.reserve(k);
    plan_.precalc.reserve(k);
  }

  bool predicts(int next) const {
    return config_.enable_precalc && next < n_layers_ &&
           next >= config_.min_predict_layer;
  }

  const NextLayerPlan& plan() const { return plan_; }

  template <class Id>
  LayerDecision plan_layer(const cache::Placement& placement, int layer,
                           std::span<const Id> selected,
                           std::span<const float> scores,
                           std::span<const char> stale = {}) {
    LayerDecision d;
    selected_.assign(selected.begin(), selected.end());
    if (confident(selected_, scores)) {
      d.skipped = static_cast<int>(selected_.size()) - 1;
      selected_.resize(1);
    }
    exclude_.assign(selected_.begin(), selected_.end());
    steps_.clear();
    for (const int e : selected_) {
      ExpertStep s{e, e, DecodeAction::GpuHit};
      if (placement.on_gpu(layer, e)) {
      } else if (!plan_.active) {
        s.action = DecodeAction::InPlaceCpu;
      } else if (std::find(plan_.precalc.begin(), plan_.precalc.end(), e) !=
                 plan_.precalc.end()) {
        const int fb = stale.empty() || stale[static_cast<std::size_t>(e)] == 0
                           ? -1
                           : best_gpu_expert(placement, layer, scores);
        s.action = fb >= 0 ? DecodeAction::StaleDiscard
                           : DecodeAction::PrecalcCommit;
        if (fb >= 0) s.exec = stand_in(fb);
      } else if (e == plan_.dropped) {
        s.action = DecodeAction::Substitute;
        s.exec = stand_in(plan_.substitute);
      } else {
        d.mispredicted = true;
        const int fb =
            config_.mispredict_policy == MispredictPolicy::GracefulFallback
                ? best_gpu_expert(placement, layer, scores)
                : -1;
        s.action = fb >= 0 ? DecodeAction::Fallback : DecodeAction::Recompute;
        if (fb >= 0) s.exec = stand_in(fb);
      }
      steps_.push_back(s);
    }
    reset_plan();
    d.steps = steps_;
    return d;
  }

  template <class Id>
  const NextLayerPlan& plan_next(const cache::Placement& placement, int next,
                                 std::span<const Id> predicted,
                                 std::span<const float> pred_scores) {
    reset_plan();
    plan_.active = true;
    predicted_.assign(predicted.begin(), predicted.end());
    if (confident(predicted_, pred_scores)) predicted_.resize(1);
    for (const int e : predicted_) {
      if (!placement.on_gpu(next, e)) plan_.precalc.push_back(e);
    }
    if (config_.enable_degradation &&
        static_cast<int>(plan_.precalc.size()) == top_k_ && top_k_ >= 2) {
      exclude_.assign(predicted_.begin(), predicted_.end());
      const int sub = best_gpu_expert(placement, next, pred_scores);
      if (sub >= 0) {
        plan_.dropped = plan_.precalc.back();
        plan_.substitute = sub;
        plan_.precalc.pop_back();
      }
    }
    return plan_;
  }

 private:
  bool confident(std::span<const int> ids, std::span<const float> scores) {
    if (config_.skip_top1_margin <= 0.0 || ids.size() < 2) return false;
    weights_.resize(ids.size());
    softmax_subset(scores, ids, weights_);
    return weights_[0] >= config_.skip_top1_margin;
  }

  int best_gpu_expert(const cache::Placement& placement, int layer,
                      std::span<const float> scores) const {
    int best = -1;
    float best_score = 0.0F;
    for (int e = 0; e < placement.n_experts(); ++e) {
      if (!placement.on_gpu(layer, e)) continue;
      if (std::find(exclude_.begin(), exclude_.end(), e) != exclude_.end()) {
        continue;
      }
      const float s = scores[static_cast<std::size_t>(e)];
      if (best < 0 || s > best_score) {
        best = e;
        best_score = s;
      }
    }
    return best;
  }

  int stand_in(int e) {
    exclude_.push_back(e);
    return e;
  }

  void reset_plan() {
    plan_.active = false;
    plan_.precalc.clear();
    plan_.dropped = -1;
    plan_.substitute = -1;
  }

  DaopConfig config_;
  int n_layers_;
  int top_k_;
  NextLayerPlan plan_;
  std::vector<int> selected_;
  std::vector<int> exclude_;
  std::vector<int> predicted_;
  std::vector<float> weights_;
  std::vector<ExpertStep> steps_;
};

/// The experts of `layer` on `device`, ascending.
std::vector<int> experts_on(const cache::Placement& placement, int layer,
                            cache::Device device) {
  std::vector<int> out;
  const std::span<const cache::Device> row = placement.layer(layer);
  for (std::size_t e = 0; e < row.size(); ++e) {
    if (row[e] == device) out.push_back(static_cast<int>(e));
  }
  return out;
}

std::vector<SwapDecision> sequence_specific_swaps(
    std::span<const double> token_counts, const cache::Placement& placement,
    int layer, double swap_in_out) {
  const int swap_num = placement.n_experts() / 2;
  std::vector<int> cpu = experts_on(placement, layer, cache::Device::Cpu);
  std::vector<int> gpu = experts_on(placement, layer, cache::Device::Gpu);
  auto by_count_desc = [&](int a, int b) {
    return token_counts[static_cast<std::size_t>(a)] >
           token_counts[static_cast<std::size_t>(b)];
  };
  auto by_count_asc = [&](int a, int b) {
    return token_counts[static_cast<std::size_t>(a)] <
           token_counts[static_cast<std::size_t>(b)];
  };
  std::stable_sort(cpu.begin(), cpu.end(), by_count_desc);
  std::stable_sort(gpu.begin(), gpu.end(), by_count_asc);
  const int pairs = std::min<int>(
      {swap_num, static_cast<int>(cpu.size()), static_cast<int>(gpu.size())});
  std::vector<SwapDecision> swaps;
  for (int i = 0; i < pairs; ++i) {
    const int hot = cpu[static_cast<std::size_t>(i)];
    const int cold = gpu[static_cast<std::size_t>(i)];
    const double hot_count = token_counts[static_cast<std::size_t>(hot)];
    const double cold_count = token_counts[static_cast<std::size_t>(cold)];
    if (hot_count >= swap_in_out * cold_count && hot_count > 0.0) {
      swaps.push_back(SwapDecision{hot, cold});
    }
  }
  return swaps;
}

}  // namespace reference

namespace {

constexpr int kLayers = 5;
constexpr int kTrials = 24;

struct NamedConfig {
  const char* name;
  DaopConfig config;
};

std::vector<NamedConfig> configs() {
  DaopConfig base;
  base.min_predict_layer = 1;
  std::vector<NamedConfig> out{{"default", base}};
  DaopConfig c = base;
  c.skip_top1_margin = 0.6;
  out.push_back({"skip-0.6", c});
  c = base;
  c.mispredict_policy = MispredictPolicy::GracefulFallback;
  out.push_back({"graceful-fallback", c});
  c = base;
  c.enable_degradation = false;
  out.push_back({"no-degradation", c});
  c = base;
  c.stale_precalc_factor = 0.5;
  out.push_back({"stale-discard", c});
  return out;
}

/// Each layer gets any GPU count in [0, E], a random subset of experts.
cache::Placement random_placement(Rng& rng, int n_experts) {
  cache::Placement p(kLayers, n_experts);
  std::vector<int> ids(static_cast<std::size_t>(n_experts));
  for (int l = 0; l < kLayers; ++l) {
    const int gpu = rng.uniform_int(0, n_experts);
    p.set_capacity(l, gpu);
    for (int e = 0; e < n_experts; ++e) ids[static_cast<std::size_t>(e)] = e;
    testing::shuffle(rng, ids);
    for (int i = 0; i < gpu; ++i) p.move_to_gpu(l, ids[static_cast<std::size_t>(i)]);
  }
  return p;
}

/// Gate logits; with `ties`, drawn from four values so equal scores (and
/// the lower-index tie-break) are common.
std::vector<float> random_scores(Rng& rng, int n_experts, bool ties) {
  std::vector<float> s(static_cast<std::size_t>(n_experts));
  for (float& v : s) {
    v = ties ? static_cast<float>(rng.uniform_int(0, 3))
             : static_cast<float>(rng.normal(0.0, 2.0));
  }
  return s;
}

/// Gate-ahead logits for a layer: its gate logits plus noise, so the
/// prediction is sometimes right and sometimes wrong.
std::vector<float> predicted_scores(Rng& rng, const std::vector<float>& gate,
                                    bool ties) {
  std::vector<float> s = gate;
  const double noise = rng.uniform() < 0.5 ? 0.3 : 3.0;
  for (float& v : s) {
    v = ties ? static_cast<float>(rng.uniform_int(0, 3))
             : v + static_cast<float>(rng.normal(0.0, noise));
  }
  return s;
}

/// How often each branch was reached, so the grid provably covers them.
struct Reached {
  std::array<long long, 7> actions{};  ///< by DecodeAction
  long long skipped = 0;
  long long mispredicted = 0;
  long long substitutes = 0;
  long long swaps = 0;
};

void expect_same(const LayerDecision& got, const LayerDecision& want,
                 Reached& reached) {
  EXPECT_EQ(got.skipped, want.skipped);
  EXPECT_EQ(got.mispredicted, want.mispredicted);
  ASSERT_EQ(got.steps.size(), want.steps.size());
  for (std::size_t i = 0; i < want.steps.size(); ++i) {
    EXPECT_EQ(got.steps[i].expert, want.steps[i].expert) << "step " << i;
    EXPECT_EQ(got.steps[i].exec, want.steps[i].exec) << "step " << i;
    EXPECT_EQ(got.steps[i].action, want.steps[i].action) << "step " << i;
    ++reached.actions[static_cast<std::size_t>(want.steps[i].action)];
  }
  reached.skipped += want.skipped;
  reached.mispredicted += want.mispredicted ? 1 : 0;
}

void expect_same(const NextLayerPlan& got,
                 const reference::NextLayerPlan& want, Reached& reached) {
  EXPECT_EQ(got.active, want.active);
  EXPECT_EQ(std::vector<int>(got.precalc.begin(), got.precalc.end()),
            want.precalc);
  EXPECT_EQ(got.dropped, want.dropped);
  EXPECT_EQ(got.substitute, want.substitute);
  reached.substitutes += want.substitute >= 0 ? 1 : 0;
}

void expect_same(std::span<const SwapDecision> got,
                 const std::vector<SwapDecision>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].expert_in, want[i].expert_in) << "swap " << i;
    EXPECT_EQ(got[i].expert_out, want[i].expert_out) << "swap " << i;
  }
}

/// Top-k ids of `scores` in the trace's (score desc, index asc) order, as
/// the id type `Id` the planner is instantiated with.
template <class Id>
std::vector<Id> top_ids(const std::vector<float>& scores, int k) {
  std::vector<Id> ids(static_cast<std::size_t>(k));
  topk_indices_into(std::span<const float>(scores), std::span<Id>(ids));
  return ids;
}

/// One trial: a random placement, then plan_next -> plan_layer chained over
/// every layer on both planners. Trace ids (uint8_t) and int ids alike.
template <class Id>
void run_trial(const DaopConfig& config, int top_k, int n_experts, Rng& rng,
               Reached& reached) {
  const cache::Placement placement = random_placement(rng, n_experts);
  const bool ties = rng.uniform() < 0.3;
  const bool stale_on = config.stale_precalc_factor > 0.0;
  DecodePolicy got(config, kLayers, top_k);
  reference::DecodePolicy want(config, kLayers, top_k);
  std::vector<float> gate = random_scores(rng, n_experts, ties);
  std::vector<char> stale(static_cast<std::size_t>(n_experts));
  for (int l = 0; l < kLayers; ++l) {
    SCOPED_TRACE("layer " + std::to_string(l));
    for (char& c : stale) c = rng.uniform() < 0.5 ? 1 : 0;
    const std::span<const char> mask =
        stale_on ? std::span<const char>(stale) : std::span<const char>();
    const std::vector<Id> selected = top_ids<Id>(gate, top_k);
    const LayerDecision d =
        got.plan_layer(placement, l, std::span<const Id>(selected),
                       std::span<const float>(gate), mask);
    const LayerDecision r =
        want.plan_layer(placement, l, std::span<const Id>(selected),
                        std::span<const float>(gate), mask);
    expect_same(d, r, reached);
    expect_same(got.plan(), want.plan(), reached);

    std::vector<float> next_gate = random_scores(rng, n_experts, ties);
    const int nl = l + 1;
    ASSERT_EQ(got.predicts(nl), want.predicts(nl));
    // Some layers have no prediction and run in place.
    if (got.predicts(nl) && rng.uniform() < 0.85) {
      const std::vector<float> pred = predicted_scores(rng, next_gate, ties);
      const std::vector<Id> predicted = top_ids<Id>(pred, top_k);
      const NextLayerPlan& p =
          got.plan_next(placement, nl, std::span<const Id>(predicted),
                        std::span<const float>(pred));
      const reference::NextLayerPlan& q =
          want.plan_next(placement, nl, std::span<const Id>(predicted),
                         std::span<const float>(pred));
      expect_same(p, q, reached);
    }
    gate = std::move(next_gate);
  }
}

TEST(DecodePolicyOracle, EveryDecisionMatchesTheReferencePlanner) {
  std::uint64_t seed = 1;
  Reached reached;
  for (const NamedConfig& c : configs()) {
    for (const int top_k : {1, 2, 3, 4, 8}) {
      for (const int n_experts : {2, 4, 8, 16, 64}) {
        if (top_k > n_experts) continue;
        SCOPED_TRACE(std::string(c.name) + " top_k=" + std::to_string(top_k) +
                     " E=" + std::to_string(n_experts));
        Rng rng(seed++);
        for (int trial = 0; trial < kTrials; ++trial) {
          SCOPED_TRACE("trial " + std::to_string(trial));
          if (trial % 2 == 0) {
            run_trial<data::ExpertId>(c.config, top_k, n_experts, rng,
                                      reached);
          } else {
            run_trial<int>(c.config, top_k, n_experts, rng, reached);
          }
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
  for (std::size_t a = 0; a < reached.actions.size(); ++a) {
    EXPECT_GT(reached.actions[a], 0) << "DecodeAction " << a << " never reached";
  }
  EXPECT_GT(reached.skipped, 0);
  EXPECT_GT(reached.mispredicted, 0);
  EXPECT_GT(reached.substitutes, 0);
}

TEST(DecodePolicyOracle, EverySwapListMatchesTheReferenceAlgorithm1) {
  std::uint64_t seed = 1000;
  long long swaps = 0;
  for (const int n_experts : {2, 4, 8, 16, 64}) {
    SCOPED_TRACE("E=" + std::to_string(n_experts));
    Rng rng(seed++);
    // One scratch for every layer and trial, as a session reuses its own.
    SwapScratch scratch(n_experts);
    for (int trial = 0; trial < 4 * kTrials; ++trial) {
      SCOPED_TRACE("trial " + std::to_string(trial));
      const cache::Placement placement = random_placement(rng, n_experts);
      // Small integer counts tie often; a few layers see no tokens at all.
      const int max_count = rng.uniform() < 0.1 ? 0 : rng.uniform_int(1, 6);
      std::vector<double> counts(static_cast<std::size_t>(n_experts));
      for (int l = 0; l < kLayers; ++l) {
        for (double& v : counts) v = rng.uniform_int(0, max_count);
        for (const double r : {1.0, 1.05, 1.5, 3.0}) {
          const std::vector<SwapDecision> want =
              reference::sequence_specific_swaps(counts, placement, l, r);
          expect_same(
              sequence_specific_swaps(counts, placement, l, r, scratch), want);
          swaps += static_cast<long long>(want.size());
        }
      }
    }
  }
  EXPECT_GT(swaps, 0);
}

}  // namespace
}  // namespace daop::core
