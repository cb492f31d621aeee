// DAOP — functional (real-numerics) plane.
//
// Runs the same policy as DaopEngine — Algorithm 1 placement and the
// core::DecodePolicy planner (gate-ahead prediction, pre-calculation on
// stale hidden states, graceful degradation, mispredict handling) — against
// a FunctionalModel, so its effect on model OUTPUTS is measurable.
// This is the executor behind the paper's accuracy results (Tables V & VI):
//  - prefill is numerically exact (placement only moves weights, §IV-B), so
//    prefill-dependent tasks match the official model;
//  - decode approximations (stale inputs for pre-calculated CPU experts,
//    degradation substitutions, mispredict fallbacks) perturb outputs more
//    as the ECR shrinks and as routing drifts within a sequence.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cache/placement.hpp"
#include "core/daop_config.hpp"
#include "model/functional_model.hpp"
#include "model/quantized_expert.hpp"

namespace daop::data {
struct SequenceTrace;
}  // namespace daop::data

namespace daop::core {

struct FunctionalRunStats {
  long long decode_expert_uses = 0;     ///< expert slots filled during decode
  long long exact_execs = 0;            ///< true expert, exact input
  long long stale_input_execs = 0;      ///< pre-calculated (stale input)
  long long degradations = 0;           ///< planned substitutions
  long long mispredict_fallbacks = 0;   ///< fallback substitutions
  long long mispredict_recomputes = 0;  ///< exact recomputes on mispredict
  long long prefill_swaps = 0;          ///< Algorithm 1 swaps applied
  long long decode_swaps = 0;           ///< decode re-allocation swaps
                                        ///< (extension, off by default)
  long long quantized_execs = 0;        ///< CPU executions run quantized
                                        ///< (cpu_quant_bits extension)
  long long skipped_experts = 0;        ///< experts skipped by the adaptive
                                        ///< top-1 margin (extension)
};

class DaopFunctionalExecutor {
 public:
  DaopFunctionalExecutor(const model::FunctionalModel& model,
                         DaopConfig config = {});

  /// Prefill + greedy decode under DAOP approximations. `initial` is the
  /// §IV-A calibrated placement (copied; Algorithm 1 adjusts the copy).
  /// `bias` is the dataset conditioner (must match the official run's).
  ///
  /// When `teacher` is non-empty (length >= n_gen) the decoder is
  /// teacher-forced: it consumes `teacher[g]` at step g instead of its own
  /// prediction, while still RETURNING its own per-step argmax predictions.
  /// Comparing the result against the official generation then measures
  /// per-step approximation error without compounding divergence — the
  /// primary accuracy proxy for Table VI.
  ///
  /// When `trace` is non-null it is overwritten with the routing this run
  /// took: the biased prefill and decode gate logits and, where a plan was
  /// made, the gate-ahead logits, one decode cell per executed step
  /// (n_gen - 1). Replaying it through DaopEngine prices the same decisions
  /// (tests/core/policy_differential_test.cpp).
  std::vector<int> generate(std::span<const int> prompt, int n_gen,
                            const cache::Placement& initial,
                            const model::GateBias& bias = nullptr,
                            FunctionalRunStats* stats = nullptr,
                            std::span<const int> teacher = {},
                            data::SequenceTrace* trace = nullptr) const;

 private:
  /// Runs expert (layer, e) on input h, quantized when the expert executes
  /// on the CPU and cpu_quant_bits is enabled.
  void run_expert(int layer, int expert, bool on_cpu,
                  std::span<const float> h, std::span<float> out,
                  FunctionalRunStats& stats) const;

  const model::FunctionalModel& model_;
  DaopConfig config_;
  std::unique_ptr<model::QuantizedExpertSet> quantized_;  ///< null when off
};

}  // namespace daop::core
