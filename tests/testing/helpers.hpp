// Shared test helpers: small model/platform setups, hand-built routing
// traces with fully controlled expert selections and predictions, and the
// scaffolding tests need that production does not (placement totals, the
// dynamic cache policies, histogram bucket widths, a shuffle).
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "cache/expert_cache.hpp"
#include "cache/placement.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "data/routing_trace.hpp"
#include "model/config.hpp"
#include "model/op_costs.hpp"
#include "obs/metrics.hpp"
#include "sim/device.hpp"

namespace daop::testing {

/// Mixtral-shaped config shrunk to 4 layers for fast engine tests (per-op
/// costs stay full-scale Mixtral).
inline model::ModelConfig small_mixtral(int n_layers = 4) {
  model::ModelConfig c = model::mixtral_8x7b();
  c.n_layers = n_layers;
  return c;
}

/// Scores that rank `sel` first, in order (10, 9, ...), and every other
/// expert at 0.
inline std::vector<float> scores_selecting(const model::ModelConfig& cfg,
                                           const std::vector<int>& sel) {
  std::vector<float> s(static_cast<std::size_t>(cfg.n_experts), 0.0F);
  float v = 10.0F;
  for (int e : sel) {
    s[static_cast<std::size_t>(e)] = v;
    v -= 1.0F;
  }
  return s;
}

/// A trace where every token at every layer selects exactly `experts`
/// (descending preference) and predictions point at `predicted`
/// (empty => same as experts) for layers >= 1.
inline data::SequenceTrace fixed_trace(const model::ModelConfig& cfg,
                                       int prompt_len, int gen_len,
                                       std::vector<int> experts,
                                       std::vector<int> predicted = {}) {
  if (predicted.empty()) predicted = experts;
  data::SequenceTrace tr(cfg.n_layers, cfg.n_experts, cfg.top_k, prompt_len,
                         gen_len);
  const std::vector<float> scores = scores_selecting(cfg, experts);
  const std::vector<float> pred = scores_selecting(cfg, predicted);
  for (int l = 0; l < cfg.n_layers; ++l) {
    for (int t = 0; t < prompt_len; ++t) {
      tr.set_cell(data::Phase::Prefill, l, t, scores);
    }
    for (int t = 0; t < gen_len; ++t) {
      tr.set_cell(data::Phase::Decode, l, t, scores,
                  l >= 1 ? std::span<const float>(pred)
                         : std::span<const float>());
    }
  }
  return tr;
}

/// Like fixed_trace, but decode tokens alternate between expert sets `a`
/// (even steps) and `b` (odd steps); predictions are perfect. With a cache
/// too small for both sets this forces sustained decode-phase churn.
inline data::SequenceTrace alternating_trace(const model::ModelConfig& cfg,
                                             int prompt_len, int gen_len,
                                             const std::vector<int>& a,
                                             const std::vector<int>& b) {
  data::SequenceTrace tr = fixed_trace(cfg, prompt_len, gen_len, a);
  const std::vector<float> sa = scores_selecting(cfg, a);
  const std::vector<float> sb = scores_selecting(cfg, b);
  for (int l = 0; l < cfg.n_layers; ++l) {
    for (int t = 0; t < gen_len; ++t) {
      const std::vector<float>& s = (t % 2 == 0) ? sa : sb;
      tr.set_cell(data::Phase::Decode, l, t, s,
                  l >= 1 ? std::span<const float>(s)
                         : std::span<const float>());
    }
  }
  return tr;
}

/// Placement with uniform capacity `cap` per layer holding experts 0..cap-1.
inline cache::Placement prefix_placement(const model::ModelConfig& cfg,
                                         int cap) {
  cache::Placement p(cfg.n_layers, cfg.n_experts);
  for (int l = 0; l < cfg.n_layers; ++l) {
    p.set_capacity(l, cap);
    for (int e = 0; e < cap; ++e) p.move_to_gpu(l, e);
  }
  return p;
}

/// Uniform double in [lo, hi) drawn from `rng`.
inline double uniform(Rng& rng, double lo, double hi) {
  DAOP_CHECK_LE(lo, hi);
  return lo + (hi - lo) * rng.uniform();
}

/// Fisher-Yates shuffle drawing from `rng`.
template <typename T>
void shuffle(Rng& rng, std::vector<T>& v) {
  for (int i = static_cast<int>(v.size()) - 1; i > 0; --i) {
    const int j = rng.uniform_int(0, i);
    std::swap(v[static_cast<std::size_t>(i)], v[static_cast<std::size_t>(j)]);
  }
}

/// Width of the bucket of `h` that `v` falls into (+Inf reuses the last
/// finite bucket's width): the bound on a histogram quantile's error.
inline double bucket_width(const obs::HistogramData& h, double v) {
  const auto& ub = h.upper_bounds;
  const auto it = std::lower_bound(ub.begin(), ub.end(), v);
  const std::size_t i =
      std::min(static_cast<std::size_t>(it - ub.begin()), ub.size() - 1);
  const double lo = i == 0 ? 0.0 : ub[i - 1];
  return ub[i] - lo;
}

/// The dynamic cache policies (every policy but frozen), in
/// all_cache_policies() order.
inline std::vector<cache::CachePolicy> dynamic_cache_policies() {
  std::vector<cache::CachePolicy> out;
  for (const cache::CachePolicy p : cache::all_cache_policies()) {
    if (p != cache::CachePolicy::kFrozen) out.push_back(p);
  }
  return out;
}

/// Experts resident on the GPU across all layers.
inline int total_gpu_count(const cache::Placement& p) {
  int total = 0;
  for (int l = 0; l < p.n_layers(); ++l) total += p.gpu_count(l);
  return total;
}

/// Fraction of all experts resident on the GPU.
inline double ecr(const cache::Placement& p) {
  return static_cast<double>(total_gpu_count(p)) /
         (static_cast<double>(p.n_layers()) * p.n_experts());
}

}  // namespace daop::testing
