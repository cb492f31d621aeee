#include "engines/batch.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "core/allocation.hpp"
#include "engines/session.hpp"
#include "sim/energy.hpp"
#include "tensor/ops.hpp"

namespace daop::engines {
namespace {

void check_batch(std::span<const data::SequenceTrace> traces,
                 const model::ModelConfig& cfg,
                 const cache::Placement& initial) {
  DAOP_CHECK(!traces.empty());
  DAOP_CHECK_EQ(initial.n_layers(), cfg.n_layers);
  DAOP_CHECK_EQ(initial.n_experts(), cfg.n_experts);
  for (std::size_t b = 0; b < traces.size(); ++b) {
    const auto& tr = traces[b];
    DAOP_CHECK_EQ(tr.n_layers(), cfg.n_layers);
    DAOP_CHECK_EQ(tr.n_experts, cfg.n_experts);
    DAOP_CHECK_EQ(tr.top_k, cfg.top_k);
    // The batched engines fuse per-layer work across sequences, so every
    // sequence must share one prompt length and one generation length (see
    // docs/API.md). Name the offender: a bare equality check is useless when
    // the batch came from a workload sampler.
    DAOP_CHECK_MSG(tr.prompt_len == traces[0].prompt_len,
                   "batched engines require equal-length sequences: sequence "
                       << b << " has prompt_len " << tr.prompt_len
                       << " but sequence 0 has prompt_len "
                       << traces[0].prompt_len);
    DAOP_CHECK_MSG(tr.gen_len == traces[0].gen_len,
                   "batched engines require equal-length sequences: sequence "
                       << b << " has gen_len " << tr.gen_len
                       << " but sequence 0 has gen_len " << traces[0].gen_len);
  }
}

/// Summed per-expert prefill token counts across the batch.
std::vector<std::vector<double>> batch_prefill_counts(
    std::span<const data::SequenceTrace> traces) {
  auto total = traces[0].activation_counts(data::Phase::Prefill);
  for (std::size_t b = 1; b < traces.size(); ++b) {
    for (std::size_t l = 0; l < total.size(); ++l) {
      const std::span<const double> counts =
          traces[b].counts(data::Phase::Prefill, static_cast<int>(l));
      for (std::size_t e = 0; e < counts.size(); ++e) {
        total[l][e] += counts[e];
      }
    }
  }
  return total;
}

BatchResult finalize_batch(const std::string& name,
                           const model::OpCosts& costs, int batch,
                           int gen_len, const sim::Timeline& tl,
                           double prefill_end, double end,
                           const EngineCounters& counters) {
  BatchResult r;
  r.engine = name;
  r.batch = batch;
  r.tokens_generated = batch * gen_len;
  r.prefill_s = prefill_end;
  r.total_s = end;
  if (end > 0.0) {
    r.tokens_per_s = r.tokens_generated / end;
    r.per_seq_tokens_per_s = static_cast<double>(gen_len) / end;
  }
  r.energy = sim::compute_energy(costs.cost_model().platform(), tl,
                                 std::max(end, tl.span()));
  if (r.energy.total_j > 0.0) {
    r.tokens_per_kj = r.tokens_generated / (r.energy.total_j / 1000.0);
  }
  r.counters = counters;
  r.counters.hazard_stall_s = tl.hazard_stall_s();
  return r;
}

/// Batched CPU-expert round trip: the shared session helper priced with the
/// batched CPU execution cost.
double cpu_expert_batch(sim::Timeline& tl, const model::OpCosts& costs,
                        double start, int n_tokens, EngineCounters& counters) {
  return cpu_expert_roundtrip(tl, costs, start, n_tokens,
                              costs.expert_cpu_batch(n_tokens), counters)
      .result_arrival;
}

/// Hybrid prefill shared by both batched engines: every expert executes
/// where it lives, with the batch's summed token counts.
double hybrid_prefill(sim::Timeline& tl, const model::OpCosts& costs,
                      const cache::Placement& placement,
                      const std::vector<std::vector<double>>& counts,
                      int batch_prompt_tokens, EngineCounters& counters) {
  const model::ModelConfig& cfg = costs.config();
  double ready = 0.0;
  for (int l = 0; l < cfg.n_layers; ++l) {
    const double nonmoe_end =
        tl.schedule(sim::Res::GpuStream, ready,
                    costs.nonmoe_gpu_prefill(batch_prompt_tokens),
                    "prefill non-MoE");
    double layer_end = nonmoe_end;
    for (int e = 0; e < cfg.n_experts; ++e) {
      const int tok = static_cast<int>(
          counts[static_cast<std::size_t>(l)][static_cast<std::size_t>(e)]);
      if (tok == 0) continue;
      if (placement.on_gpu(l, e)) {
        ++counters.cache_hits;
        ++counters.gpu_expert_execs;
        layer_end = std::max(
            layer_end, tl.schedule(sim::Res::GpuStream, nonmoe_end,
                                   costs.expert_gpu_prefill(tok),
                                   "prefill expert"));
      } else {
        ++counters.cache_misses;
        layer_end = std::max(
            layer_end, cpu_expert_batch(tl, costs, nonmoe_end, tok, counters));
      }
    }
    ready = layer_end;
  }
  return ready;
}

}  // namespace

BatchResult run_fiddler_batch(const model::OpCosts& costs,
                              std::span<const data::SequenceTrace> traces,
                              const cache::Placement& initial,
                              sim::FaultModel* fault) {
  const model::ModelConfig& cfg = costs.config();
  check_batch(traces, cfg, initial);
  const int B = static_cast<int>(traces.size());
  const int gen_len = traces[0].gen_len;
  const int prompt_len = traces[0].prompt_len;

  sim::Timeline tl;
  tl.set_fault_model(fault);
  EngineCounters counters;
  const auto prefill_counts = batch_prefill_counts(traces);
  double ready = hybrid_prefill(tl, costs, initial, prefill_counts,
                                B * prompt_len, counters);
  const double prefill_end = ready;

  std::vector<int> expert_tokens(static_cast<std::size_t>(cfg.n_experts));
  for (int t = 0; t < gen_len; ++t) {
    const int ctx = prompt_len + t;
    for (int l = 0; l < cfg.n_layers; ++l) {
      const double nonmoe_end = tl.schedule(
          sim::Res::GpuStream, ready, costs.nonmoe_gpu_batch(B, ctx),
          "non-MoE");
      std::fill(expert_tokens.begin(), expert_tokens.end(), 0);
      for (const auto& tr : traces) {
        for (int e : tr.selected(data::Phase::Decode, l, t)) {
          ++expert_tokens[static_cast<std::size_t>(e)];
        }
      }
      double layer_end = nonmoe_end;
      for (int e = 0; e < cfg.n_experts; ++e) {
        const int tok = expert_tokens[static_cast<std::size_t>(e)];
        if (tok == 0) continue;
        if (initial.on_gpu(l, e)) {
          counters.cache_hits += tok;
          ++counters.gpu_expert_execs;
          layer_end = std::max(
              layer_end, tl.schedule(sim::Res::GpuStream, nonmoe_end,
                                     costs.expert_gpu_batch(tok),
                                     "GPU expert"));
        } else {
          counters.cache_misses += tok;
          layer_end = std::max(
              layer_end, cpu_expert_batch(tl, costs, nonmoe_end, tok, counters));
        }
      }
      ready = layer_end;
    }
  }
  return finalize_batch("Fiddler (batched)", costs, B, gen_len, tl,
                        prefill_end, ready, counters);
}

BatchResult run_daop_batch(const model::OpCosts& costs,
                           const core::DaopConfig& config,
                           std::span<const data::SequenceTrace> traces,
                           const cache::Placement& initial,
                           sim::FaultModel* fault) {
  const model::ModelConfig& cfg = costs.config();
  check_batch(traces, cfg, initial);
  core::validate_config(config);
  const int B = static_cast<int>(traces.size());
  const int gen_len = traces[0].gen_len;
  const int prompt_len = traces[0].prompt_len;
  const int E = cfg.n_experts;

  sim::Timeline tl;
  tl.set_fault_model(fault);
  EngineCounters counters;
  cache::Placement placement = initial;

  // Prefill executes at the initial placement; Algorithm 1 runs once on the
  // batch's summed counts (one shared cache for everyone) with migrations
  // riding PCIe underneath.
  const auto prefill_counts = batch_prefill_counts(traces);
  double ready = hybrid_prefill(tl, costs, placement, prefill_counts,
                                B * prompt_len, counters);
  const double prefill_end = ready;
  if (config.enable_seq_allocation) {
    double last_swap_end = 0.0;
    for (int l = 0; l < cfg.n_layers; ++l) {
      const auto swaps = core::sequence_specific_swaps(
          prefill_counts[static_cast<std::size_t>(l)], placement, l,
          config.swap_in_out);
      core::apply_swaps(placement, l, swaps);
      for (std::size_t s = 0; s < swaps.size(); ++s) {
        last_swap_end = std::max(
            last_swap_end, tl.schedule(sim::Res::PcieH2D, 0.0,
                                       costs.expert_migration(), "swap-in"));
        ++counters.expert_migrations;
        ++counters.prefill_swaps;
      }
    }
    ready = std::max(ready, last_swap_end);
  }

  // Per-layer plan carried to layer l+1.
  struct Plan {
    bool active = false;
    std::vector<double> arrival;            ///< per expert; < 0 = none
    std::vector<std::vector<int>> sub;      ///< [seq][expert] substitute
    std::vector<std::vector<char>> covered; ///< [seq][expert] pre-calculated
                                            ///< for THIS sequence's token
    explicit Plan(int n_experts, int batch)
        : arrival(static_cast<std::size_t>(n_experts), -1.0),
          sub(static_cast<std::size_t>(batch),
              std::vector<int>(static_cast<std::size_t>(n_experts), -1)),
          covered(static_cast<std::size_t>(batch),
                  std::vector<char>(static_cast<std::size_t>(n_experts), 0)) {}
  };

  std::vector<int> gpu_tokens(static_cast<std::size_t>(E));
  std::vector<int> cpu_exact_tokens(static_cast<std::size_t>(E));
  for (int t = 0; t < gen_len; ++t) {
    const int ctx = prompt_len + t;
    Plan plan(E, B);
    for (int l = 0; l < cfg.n_layers; ++l) {
      const double nonmoe_end = tl.schedule(
          sim::Res::GpuStream, ready, costs.nonmoe_gpu_batch(B, ctx),
          "non-MoE");

      // Classify each sequence's selections.
      std::fill(gpu_tokens.begin(), gpu_tokens.end(), 0);
      std::fill(cpu_exact_tokens.begin(), cpu_exact_tokens.end(), 0);
      double precalc_wait = nonmoe_end;
      for (int b = 0; b < B; ++b) {
        const data::TokenRouting tok =
            traces[static_cast<std::size_t>(b)].at(data::Phase::Decode, l, t);
        // Charged at most once per sequence per plan: the counter means
        // "this sequence's predicted set missed a used expert", matching
        // the single-sequence engine's per-plan semantics.
        bool missed = false;
        for (const int e : tok.selected) {
          const auto ei = static_cast<std::size_t>(e);
          if (placement.on_gpu(l, e)) {
            ++counters.cache_hits;
            ++gpu_tokens[ei];
            continue;
          }
          ++counters.cache_misses;
          if (plan.active && plan.covered[static_cast<std::size_t>(b)][ei] &&
              plan.arrival[ei] >= 0.0) {
            precalc_wait = std::max(precalc_wait, plan.arrival[ei]);
          } else if (plan.active &&
                     plan.sub[static_cast<std::size_t>(b)][ei] >= 0) {
            ++gpu_tokens[static_cast<std::size_t>(
                plan.sub[static_cast<std::size_t>(b)][ei])];
          } else if (plan.active) {
            if (!missed) {
              missed = true;
              ++counters.mispredictions;
            }
            ++cpu_exact_tokens[ei];  // RecomputeExact semantics in batch
          } else {
            ++cpu_exact_tokens[ei];  // early layers: in-place hybrid
          }
        }
      }

      double layer_end = precalc_wait;
      for (int e = 0; e < E; ++e) {
        if (gpu_tokens[static_cast<std::size_t>(e)] > 0) {
          ++counters.gpu_expert_execs;
          layer_end = std::max(
              layer_end,
              tl.schedule(sim::Res::GpuStream, nonmoe_end,
                          costs.expert_gpu_batch(
                              gpu_tokens[static_cast<std::size_t>(e)]),
                          "GPU expert"));
        }
        if (cpu_exact_tokens[static_cast<std::size_t>(e)] > 0) {
          layer_end = std::max(
              layer_end,
              cpu_expert_batch(tl, costs, nonmoe_end,
                               cpu_exact_tokens[static_cast<std::size_t>(e)],
                               counters));
        }
      }

      // Plan for layer l+1 from this layer's hidden states.
      plan = Plan(E, B);
      const int nl = l + 1;
      if (config.enable_precalc && nl < cfg.n_layers &&
          nl >= config.min_predict_layer) {
        std::vector<int> pre_tokens(static_cast<std::size_t>(E), 0);
        bool any_pred = false;
        for (int b = 0; b < B; ++b) {
          const data::TokenRouting ntok =
              traces[static_cast<std::size_t>(b)].at(data::Phase::Decode, nl,
                                                     t);
          if (ntok.pred_scores.empty()) continue;
          any_pred = true;
          std::vector<int> pred_cpu;
          for (const int e : ntok.predicted) {
            if (!placement.on_gpu(nl, e)) pred_cpu.push_back(e);
          }
          if (config.enable_degradation &&
              static_cast<int>(pred_cpu.size()) == cfg.top_k &&
              cfg.top_k >= 2) {
            // Drop this sequence's lower-scored CPU expert for the best
            // GPU-resident one (by its own predicted scores).
            int best = -1;
            float best_score = 0.0F;
            for (int e = 0; e < E; ++e) {
              if (!placement.on_gpu(nl, e)) continue;
              const float s =
                  ntok.pred_scores[static_cast<std::size_t>(e)];
              if (best < 0 || s > best_score) {
                best = e;
                best_score = s;
              }
            }
            if (best >= 0) {
              plan.sub[static_cast<std::size_t>(b)]
                      [static_cast<std::size_t>(pred_cpu.back())] = best;
              pred_cpu.pop_back();
              ++counters.degradations;
            }
          }
          for (int e : pred_cpu) {
            ++pre_tokens[static_cast<std::size_t>(e)];
            plan.covered[static_cast<std::size_t>(b)]
                        [static_cast<std::size_t>(e)] = 1;
          }
        }
        if (any_pred) {
          plan.active = true;
          ++counters.predictions;
          for (int e = 0; e < E; ++e) {
            const int tok = pre_tokens[static_cast<std::size_t>(e)];
            if (tok == 0) continue;
            plan.arrival[static_cast<std::size_t>(e)] =
                cpu_expert_batch(tl, costs, nonmoe_end, tok, counters);
          }
        }
      }
      ready = layer_end;
    }
  }
  return finalize_batch("DAOP (batched)", costs, B, gen_len, tl, prefill_end,
                        ready, counters);
}

}  // namespace daop::engines
