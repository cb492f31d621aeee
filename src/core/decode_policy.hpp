// DAOP's per-layer decode policy (§IV-C) as one pure planner.
//
// Every plane that runs DAOP decode asks this planner what to do with each
// selected expert and prices or executes the answer itself: DaopEngine
// schedules the actions on the simulated timeline, DaopFunctionalExecutor
// runs them numerically, and run_daop_batch aggregates them per expert over
// a batch. The planner has no clock and no numerics: it sees the placement,
// the gate's selected ids and scores, the gate-ahead prediction for the next
// layer and, from the timing plane only, which pre-calculated results would
// land too late.
//
// Per decode layer l a plane calls plan_layer(l, ...), which consumes the
// plan made at layer l-1, then — if predicts(l+1) and a prediction exists —
// plan_next(l+1, ...), which makes the plan layer l+1 will consume. A layer
// with no plan_next before it runs in place (GpuHit / InPlaceCpu only), so a
// token's first layer never inherits the previous token's plan.
//
// All scratch is sized at construction; neither call allocates.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "cache/placement.hpp"
#include "core/daop_config.hpp"
#include "tensor/ops.hpp"

namespace daop::core {

/// What one kept (selected, not skipped) expert of a decode layer does.
enum class DecodeAction : std::uint8_t {
  GpuHit,         ///< GPU-resident: runs there on the exact input
  PrecalcCommit,  ///< pre-calculated on the CPU from the previous layer's
                  ///< hidden state; that stale-input result is used
  StaleDiscard,   ///< pre-calculated, but the result would land too late;
                  ///< the best unused GPU expert runs instead
  Substitute,     ///< dropped by graceful degradation when planned; the
                  ///< planned GPU substitute runs instead
  Fallback,       ///< mispredicted CPU expert; the best unused GPU expert
                  ///< runs instead (MispredictPolicy::GracefulFallback)
  Recompute,      ///< mispredicted CPU expert, run on the CPU on the exact
                  ///< input (RecomputeExact, or no GPU expert left)
  InPlaceCpu,     ///< CPU-resident with no active plan (early layers, or
                  ///< pre-calculation off): runs on the CPU, exact input
};

/// The action runs the selected expert itself on the CPU, exact input.
inline bool runs_on_cpu(DecodeAction a) {
  return a == DecodeAction::Recompute || a == DecodeAction::InPlaceCpu;
}

/// One kept expert's decision.
struct ExpertStep {
  int expert = -1;  ///< the selected expert
  int exec = -1;    ///< the expert that runs: `expert`, or the GPU expert
                    ///< standing in for it (StaleDiscard/Substitute/Fallback)
  DecodeAction action = DecodeAction::GpuHit;
};

/// plan_layer's answer for one layer.
struct LayerDecision {
  /// One step per kept expert, in selection (score-descending) order.
  std::span<const ExpertStep> steps;
  /// Experts dropped by adaptive top-1 skipping (skip_top1_margin).
  int skipped = 0;
  /// The plan missed at least one used CPU expert. At most once per plan:
  /// the unit is "the predicted set missed", not "an expert was missed".
  bool mispredicted = false;
};

/// Pre-calculation plan made at layer l for layer l+1.
struct NextLayerPlan {
  bool active = false;
  /// Predicted CPU-resident experts to pre-calculate, score-descending.
  std::vector<int> precalc;
  /// Predicted CPU expert replaced by graceful degradation, or -1.
  int dropped = -1;
  /// The GPU-resident expert standing in for `dropped`, or -1.
  int substitute = -1;
};

class DecodePolicy {
 public:
  DecodePolicy(const DaopConfig& config, int n_layers, int top_k)
      : config_(config), n_layers_(n_layers), top_k_(top_k) {
    const auto k = static_cast<std::size_t>(top_k);
    selected_.reserve(k);
    // The selected experts plus at most one stand-in per selected expert.
    exclude_.reserve(2 * k);
    predicted_.reserve(k);
    weights_.reserve(k);
    steps_.reserve(k);
    plan_.precalc.reserve(k);
  }

  /// Whether layer `next` is planned from a gate-ahead prediction.
  bool predicts(int next) const {
    return config_.enable_precalc && next < n_layers_ &&
           next >= config_.min_predict_layer;
  }

  /// The plan the next plan_layer call will consume.
  const NextLayerPlan& plan() const { return plan_; }

  /// Decides every kept expert of decode layer `layer` and consumes the
  /// pending plan. `selected` is the gate's top-k (score-descending) and
  /// `scores` its logits. `stale[e]`, read only for experts in
  /// plan().precalc, marks a pre-calculated result that lands too late;
  /// pass an empty mask when stale discard is off.
  template <class Id>
  LayerDecision plan_layer(const cache::Placement& placement, int layer,
                           std::span<const Id> selected,
                           std::span<const float> scores,
                           std::span<const char> stale = {}) {
    LayerDecision d;
    selected_.assign(selected.begin(), selected.end());
    // Adaptive expert skipping (extension): confident tokens keep only
    // their top-1 expert.
    if (confident(selected_, scores)) {
      d.skipped = static_cast<int>(selected_.size()) - 1;
      selected_.resize(1);
    }
    // Stand-ins must be fresh experts.
    exclude_.assign(selected_.begin(), selected_.end());
    steps_.clear();
    for (const int e : selected_) {
      ExpertStep s{e, e, DecodeAction::GpuHit};
      if (placement.on_gpu(layer, e)) {
        // GpuHit.
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

  /// Plans pre-calculation for layer `next` (requires predicts(next)) from
  /// its gate-ahead prediction: top-k ids (score-descending) and logits.
  /// Returns the plan; the caller pre-calculates plan.precalc in order.
  template <class Id>
  const NextLayerPlan& plan_next(const cache::Placement& placement, int next,
                                 std::span<const Id> predicted,
                                 std::span<const float> pred_scores) {
    reset_plan();
    plan_.active = true;
    predicted_.assign(predicted.begin(), predicted.end());
    // Under adaptive skipping, confident predictions only need their top-1
    // expert pre-calculated.
    if (confident(predicted_, pred_scores)) predicted_.resize(1);
    for (const int e : predicted_) {
      if (!placement.on_gpu(next, e)) plan_.precalc.push_back(e);
    }
    // Graceful degradation: when every predicted expert sits on the CPU,
    // the lowest-scored one is replaced by the best GPU-resident expert.
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
  /// Top-1 weight, renormalized over `ids`, reaches skip_top1_margin.
  bool confident(std::span<const int> ids, std::span<const float> scores) {
    if (config_.skip_top1_margin <= 0.0 || ids.size() < 2) return false;
    weights_.resize(ids.size());
    softmax_subset(scores, ids, weights_);
    return weights_[0] >= config_.skip_top1_margin;
  }

  /// Best GPU-resident expert of `layer` by `scores`, not in exclude_;
  /// -1 if none.
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

}  // namespace daop::core
