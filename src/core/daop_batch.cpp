#include "core/daop_batch.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "core/allocation.hpp"
#include "core/decode_policy.hpp"

namespace daop::core {

engines::BatchResult run_daop_batch(
    const model::OpCosts& costs, const DaopConfig& config,
    std::span<const data::SequenceTrace> traces,
    const cache::Placement& initial, sim::FaultModel* fault) {
  const model::ModelConfig& cfg = costs.config();
  engines::check_batch(traces, cfg, initial);
  validate_config(config);
  DAOP_CHECK_MSG(config.cpu_quant_bits == 0,
                 "run_daop_batch does not model DaopConfig.cpu_quant_bits, "
                 "got " << config.cpu_quant_bits);
  DAOP_CHECK_MSG(config.decode_realloc_interval == 0,
                 "run_daop_batch does not model "
                 "DaopConfig.decode_realloc_interval, got "
                     << config.decode_realloc_interval);
  DAOP_CHECK_MSG(config.stale_precalc_factor == 0.0,
                 "run_daop_batch does not model "
                 "DaopConfig.stale_precalc_factor, got "
                     << config.stale_precalc_factor);
  const int B = static_cast<int>(traces.size());
  const int L = cfg.n_layers;
  const int E = cfg.n_experts;
  const int gen_len = traces[0].gen_len;
  const int prompt_len = traces[0].prompt_len;

  sim::Timeline tl;
  tl.set_fault_model(fault);
  engines::EngineCounters counters;
  cache::Placement placement = initial;

  // Prefill executes at the initial placement; Algorithm 1 runs once on the
  // batch's summed counts (one shared cache for everyone) with migrations
  // riding PCIe underneath.
  const auto prefill_counts = engines::batch_prefill_counts(traces);
  double ready = engines::hybrid_prefill(tl, costs, placement, prefill_counts,
                                         B * prompt_len, counters);
  const double prefill_end = ready;
  if (config.enable_seq_allocation) {
    double last_swap_end = 0.0;
    for (int l = 0; l < L; ++l) {
      const auto swaps = sequence_specific_swaps(
          prefill_counts[static_cast<std::size_t>(l)], placement, l,
          config.swap_in_out);
      apply_swaps(placement, l, swaps);
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

  std::vector<DecodePolicy> policies(
      static_cast<std::size_t>(B), DecodePolicy(config, L, cfg.top_k));
  // Result arrival of each expert pre-calculated for the pending plans
  // (valid for the experts in some sequence's plan().precalc).
  std::vector<double> precalc_arrival(static_cast<std::size_t>(E), 0.0);
  std::vector<int> gpu_tokens(static_cast<std::size_t>(E));
  std::vector<int> cpu_exact_tokens(static_cast<std::size_t>(E));
  std::vector<int> precalc_tokens(static_cast<std::size_t>(E));
  for (int t = 0; t < gen_len; ++t) {
    const int ctx = prompt_len + t;
    for (int l = 0; l < L; ++l) {
      const double nonmoe_end = tl.schedule(
          sim::Res::GpuStream, ready, costs.nonmoe_gpu_batch(B, ctx),
          "non-MoE");

      // Each sequence's decisions, aggregated per executing expert.
      std::fill(gpu_tokens.begin(), gpu_tokens.end(), 0);
      std::fill(cpu_exact_tokens.begin(), cpu_exact_tokens.end(), 0);
      double precalc_wait = nonmoe_end;
      for (int b = 0; b < B; ++b) {
        const data::TokenRouting tok =
            traces[static_cast<std::size_t>(b)].at(data::Phase::Decode, l, t);
        const LayerDecision d =
            policies[static_cast<std::size_t>(b)].plan_layer(
                placement, l, tok.selected, tok.scores);
        counters.skipped_experts += d.skipped;
        if (d.mispredicted) ++counters.mispredictions;
        for (const ExpertStep& s : d.steps) {
          const auto ei = static_cast<std::size_t>(s.expert);
          ++(s.action == DecodeAction::GpuHit ? counters.cache_hits
                                              : counters.cache_misses);
          // The engine counts a fallback as a degradation too.
          if (s.action == DecodeAction::Fallback) ++counters.degradations;
          if (s.action == DecodeAction::PrecalcCommit) {
            precalc_wait = std::max(precalc_wait, precalc_arrival[ei]);
          } else if (runs_on_cpu(s.action)) {
            ++cpu_exact_tokens[ei];
          } else {  // on the GPU: the expert itself or its stand-in
            ++gpu_tokens[static_cast<std::size_t>(s.exec)];
          }
        }
      }

      double layer_end = precalc_wait;
      for (int e = 0; e < E; ++e) {
        const int gpu = gpu_tokens[static_cast<std::size_t>(e)];
        if (gpu > 0) {
          ++counters.gpu_expert_execs;
          layer_end = std::max(
              layer_end, tl.schedule(sim::Res::GpuStream, nonmoe_end,
                                     costs.expert_gpu_batch(gpu),
                                     "GPU expert"));
        }
        const int cpu = cpu_exact_tokens[static_cast<std::size_t>(e)];
        if (cpu > 0) {
          layer_end = std::max(
              layer_end, engines::cpu_expert_batch(tl, costs, nonmoe_end, cpu,
                                                   counters));
        }
      }

      // Plan layer l+1 from this layer's hidden states: every sequence's
      // pre-calculations of one expert share one batched CPU execution.
      const int nl = l + 1;
      if (policies[0].predicts(nl)) {
        std::fill(precalc_tokens.begin(), precalc_tokens.end(), 0);
        bool any_pred = false;
        for (int b = 0; b < B; ++b) {
          const data::TokenRouting ntok =
              traces[static_cast<std::size_t>(b)].at(data::Phase::Decode, nl,
                                                     t);
          if (ntok.pred_scores.empty()) continue;
          any_pred = true;
          const NextLayerPlan& plan =
              policies[static_cast<std::size_t>(b)].plan_next(
                  placement, nl, ntok.predicted, ntok.pred_scores);
          if (plan.substitute >= 0) ++counters.degradations;
          for (const int e : plan.precalc) {
            ++precalc_tokens[static_cast<std::size_t>(e)];
          }
        }
        if (any_pred) {
          ++counters.predictions;
          for (int e = 0; e < E; ++e) {
            const int tok = precalc_tokens[static_cast<std::size_t>(e)];
            if (tok == 0) continue;
            precalc_arrival[static_cast<std::size_t>(e)] =
                engines::cpu_expert_batch(tl, costs, nonmoe_end, tok,
                                          counters);
          }
        }
      }
      ready = layer_end;
    }
  }
  return engines::finalize_batch("DAOP (batched)", costs, B, gen_len, tl,
                                 prefill_end, ready, counters);
}

}  // namespace daop::core
