#include "engines/batch.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "engines/session.hpp"
#include "sim/energy.hpp"

namespace daop::engines {

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

double cpu_expert_batch(sim::Timeline& tl, const model::OpCosts& costs,
                        double start, int n_tokens, EngineCounters& counters) {
  return cpu_expert_roundtrip(tl, costs, start, n_tokens,
                              costs.expert_cpu_batch(n_tokens), counters)
      .result_arrival;
}

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

}  // namespace daop::engines
