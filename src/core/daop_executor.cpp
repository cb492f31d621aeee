#include "core/daop_executor.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "core/allocation.hpp"
#include "core/decode_policy.hpp"
#include "data/routing_trace.hpp"
#include "tensor/ops.hpp"

namespace daop::core {
namespace {

/// The FunctionalRunStats counter a DecodeAction increments. StaleDiscard
/// needs a clock, so it never occurs here (this plane passes no stale mask).
long long& action_stat(FunctionalRunStats& st, DecodeAction a) {
  switch (a) {
    case DecodeAction::PrecalcCommit:
      return st.stale_input_execs;
    case DecodeAction::Substitute:
      return st.degradations;
    case DecodeAction::Fallback:
      return st.mispredict_fallbacks;
    case DecodeAction::Recompute:
      return st.mispredict_recomputes;
    default:  // GpuHit, InPlaceCpu: true expert, exact input
      return st.exact_execs;
  }
}

}  // namespace

DaopFunctionalExecutor::DaopFunctionalExecutor(
    const model::FunctionalModel& model, DaopConfig config)
    : model_(model), config_(config) {
  validate_config(config_);
  if (config_.cpu_quant_bits > 0) {
    quantized_ = std::make_unique<model::QuantizedExpertSet>(
        model_, QuantSpec{config_.cpu_quant_bits, kCpuQuantGroup});
  }
}

void DaopFunctionalExecutor::run_expert(int layer, int expert, bool on_cpu,
                                        std::span<const float> h,
                                        std::span<float> out,
                                        FunctionalRunStats& stats) const {
  if (on_cpu && quantized_) {
    quantized_->forward(layer, expert, h, out);
    ++stats.quantized_execs;
  } else {
    model_.expert_forward(layer, expert, h, out);
  }
}

std::vector<int> DaopFunctionalExecutor::generate(
    std::span<const int> prompt, int n_gen, const cache::Placement& initial,
    const model::GateBias& bias, FunctionalRunStats* stats,
    std::span<const int> teacher, data::SequenceTrace* trace) const {
  DAOP_CHECK(!prompt.empty());
  DAOP_CHECK_GE(n_gen, 0);
  DAOP_CHECK(teacher.empty() ||
             static_cast<int>(teacher.size()) >= n_gen);
  const model::ModelConfig& cfg = model_.config();
  DAOP_CHECK_EQ(initial.n_layers(), cfg.n_layers);
  DAOP_CHECK_EQ(initial.n_experts(), cfg.n_experts);
  const int L = cfg.n_layers;
  const int E = cfg.n_experts;
  const auto D = static_cast<std::size_t>(cfg.d_model);

  cache::Placement placement = initial;
  FunctionalRunStats local_stats;
  FunctionalRunStats& st = stats ? *stats : local_stats;

  const int total = static_cast<int>(prompt.size()) + n_gen;
  model::KvCache kv(cfg, total);

  std::vector<float> x(D);
  std::vector<float> vocab_logits(static_cast<std::size_t>(cfg.vocab_size));
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(n_gen));

  if (trace != nullptr) {
    *trace = data::SequenceTrace(L, E, cfg.top_k,
                                 static_cast<int>(prompt.size()),
                                 std::max(n_gen - 1, 0));
  }
  std::vector<float> prefill_gate;

  // ---- Prefill: exact numerics; collect per-layer expert token counts ----
  std::vector<std::vector<double>> counts(
      static_cast<std::size_t>(L),
      std::vector<double>(static_cast<std::size_t>(E), 0.0));
  int next_token = -1;
  for (int pos = 0; pos < static_cast<int>(prompt.size()); ++pos) {
    model_.embed(prompt[static_cast<std::size_t>(pos)], x);
    for (int l = 0; l < L; ++l) {
      const model::RouteDecision d = model_.official_block(
          l, x, kv, pos, bias, trace != nullptr ? &prefill_gate : nullptr);
      if (trace != nullptr) {
        trace->set_cell(data::Phase::Prefill, l, pos, prefill_gate);
      }
      for (int e : d.experts) {
        counts[static_cast<std::size_t>(l)][static_cast<std::size_t>(e)] += 1.0;
      }
    }
    kv.advance();
  }
  model_.lm_logits(x, vocab_logits);
  next_token = argmax(vocab_logits);  // first output token (prefill-exact)

  // Algorithm 1: adjust placement for the decode phase.
  SwapScratch swap_scratch(E);
  if (config_.enable_seq_allocation) {
    for (int l = 0; l < L; ++l) {
      const auto swaps = sequence_specific_swaps(
          counts[static_cast<std::size_t>(l)], placement, l,
          config_.swap_in_out, swap_scratch);
      apply_swaps(placement, l, swaps);
      st.prefill_swaps += static_cast<long long>(swaps.size());
    }
  }

  // ---- Decode under DAOP approximations ----
  std::vector<float> h(D);
  std::vector<float> expert_out(D);
  std::vector<float> gate_logits(static_cast<std::size_t>(E));
  std::vector<float> pred_logits(static_cast<std::size_t>(E));

  // Decode re-allocation extension: trailing-window activation counts.
  std::vector<std::vector<double>> window(
      static_cast<std::size_t>(L),
      std::vector<double>(static_cast<std::size_t>(E), 0.0));

  DecodePolicy policy(config_, L, cfg.top_k);
  /// Pre-calculated (stale-input) outputs of the pending plan's experts.
  std::vector<std::vector<float>> precalc(static_cast<std::size_t>(E));
  std::vector<int> exec_ids;
  std::vector<float> weights;

  for (int g = 0; g < n_gen; ++g) {
    if (static_cast<int>(out.size()) < n_gen) out.push_back(next_token);
    if (static_cast<int>(out.size()) == n_gen && g == n_gen - 1) {
      // Last token recorded; still run the step only if its output is
      // needed — it is not, so stop here.
      break;
    }
    const int pos = static_cast<int>(prompt.size()) + g;
    const int consumed =
        teacher.empty() ? next_token : teacher[static_cast<std::size_t>(g)];
    model_.embed(consumed, x);

    for (int l = 0; l < L; ++l) {
      model_.attention_block(l, x, kv, pos);
      model_.ffn_input(l, x, h);
      model_.gate(l, h, gate_logits);
      if (bias) bias(l, pos, gate_logits);
      if (trace != nullptr) {
        // pred_logits still holds the gate-ahead logits planned for layer l.
        trace->set_cell(data::Phase::Decode, l, g, gate_logits,
                        policy.plan().active
                            ? std::span<const float>(pred_logits)
                            : std::span<const float>());
      }
      const std::vector<int> selected = topk_indices(gate_logits, cfg.top_k);
      const LayerDecision d = policy.plan_layer(
          placement, l, std::span<const int>(selected), gate_logits);
      st.skipped_experts += d.skipped;

      exec_ids.clear();
      std::vector<double>& layer_window = window[static_cast<std::size_t>(l)];
      for (const ExpertStep& s : d.steps) {
        layer_window[static_cast<std::size_t>(s.expert)] += 1.0;
        ++st.decode_expert_uses;
        ++action_stat(st, s.action);
        exec_ids.push_back(s.exec);
      }

      // Renormalize gate weights over the experts actually executed.
      weights.resize(exec_ids.size());
      softmax_subset(gate_logits, exec_ids, weights);
      for (std::size_t i = 0; i < d.steps.size(); ++i) {
        const ExpertStep& s = d.steps[i];
        if (s.action == DecodeAction::PrecalcCommit) {
          axpy_inplace(x, weights[i],
                       precalc[static_cast<std::size_t>(s.expert)]);
        } else {
          // In-place CPU execution is exact in fp, quantized only under the
          // cpu_quant_bits extension.
          run_expert(l, s.exec, runs_on_cpu(s.action), h, expert_out, st);
          axpy_inplace(x, weights[i], expert_out);
        }
      }

      // Plan pre-calculation for layer l+1 from this layer's hidden state.
      const int nl = l + 1;
      if (policy.predicts(nl)) {
        model_.gate(nl, h, pred_logits);
        if (bias) bias(nl, pos, pred_logits);
        const std::vector<int> predicted = topk_indices(pred_logits, cfg.top_k);
        const NextLayerPlan& plan = policy.plan_next(
            placement, nl, std::span<const int>(predicted), pred_logits);
        for (const int e : plan.precalc) {
          auto& dst = precalc[static_cast<std::size_t>(e)];
          dst.assign(D, 0.0F);
          // Stale input: this layer's non-MoE hidden state stands in for
          // the next layer's (residual-stream approximation, §IV-C).
          run_expert(nl, e, /*on_cpu=*/true, h, dst, st);
        }
      }
    }
    kv.advance();
    model_.lm_logits(x, vocab_logits);
    next_token = argmax(vocab_logits);

    // Decode re-allocation (extension): let the cache follow drift.
    if (config_.decode_realloc_interval > 0 &&
        (g + 1) % config_.decode_realloc_interval == 0) {
      for (int l = 0; l < L; ++l) {
        const auto swaps = sequence_specific_swaps(
            window[static_cast<std::size_t>(l)], placement, l,
            config_.swap_in_out, swap_scratch);
        apply_swaps(placement, l, swaps);
        st.decode_swaps += static_cast<long long>(swaps.size());
        std::fill(window[static_cast<std::size_t>(l)].begin(),
                  window[static_cast<std::size_t>(l)].end(), 0.0);
      }
    }
  }
  if (static_cast<int>(out.size()) < n_gen) out.push_back(next_token);
  return out;
}

}  // namespace daop::core
