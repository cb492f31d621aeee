// GPU-centric baselines: experts always execute on the GPU; missing experts
// are fetched over PCIe. One parameterized engine covers the family the
// paper compares against, differing only in caching/prefetch policy:
//
//   MoE-OnDemand        fetch on miss, LRU cache, fetch/compute overlap
//   DeepSpeed-MII       fetch on miss, NO expert cache management, fully
//                       synchronous transfers (the library has no expert
//                       offloading mechanism; §V-C)
//   Mixtral-Offloading  LRU cache + speculative prefetch (reuse heuristic) +
//                       mixed quantization (≈half-size expert transfers)
//   Pre-gated MoE       LRU cache + predictive prefetch of the next layer's
//                       experts (gate-ahead), fetch on mispredict
#pragma once

#include "engines/engine.hpp"

namespace daop::engines {

struct FetchPolicy {
  std::string name;
  /// Keep fetched experts resident (LRU eviction). When false every miss
  /// re-streams the expert and placement never changes.
  bool reuse_cache = true;
  /// Pipeline weight transfers with GPU compute. When false the GPU blocks
  /// for each transfer (synchronous cudaMemcpy style).
  bool overlap_fetch = true;
  /// Prefetch (predicted) next-layer experts during the current layer.
  bool prefetch_next_layer = false;
  /// Prefetch target: true = gate-ahead predictions from the trace
  /// (Pre-gated MoE); false = assume the next layer reuses the current
  /// layer's expert ids (speculative reuse heuristic).
  bool prefetch_uses_prediction = false;
  /// Prefetch target override: use the SEQUENCE-LEVEL activation pattern
  /// observed during prefill (top-k experts of the next layer by prefill
  /// token counts) — MoE-Infinity's activation-aware prefetching.
  bool prefetch_uses_sequence_pattern = false;
  /// Fraction of fp16 expert bytes actually transferred (mixed
  /// quantization in Mixtral-Offloading ≈ 0.5).
  double weight_bytes_factor = 1.0;
  /// Start with NO experts resident on the GPU: DeepSpeed-MII lacks an
  /// expert offloading/caching mechanism (§V-C), so every expert streams
  /// from host memory on every use.
  bool ignore_initial_cache = false;
};

class FetchBasedEngine : public Engine {
 public:
  FetchBasedEngine(const model::OpCosts& costs, FetchPolicy policy);

  std::string name() const override { return policy_.name; }

 protected:
  std::unique_ptr<SequenceSession> do_open_session(
      const data::SequenceTrace& trace, const cache::Placement& initial,
      const SessionEnv& env) override;

 private:
  FetchPolicy policy_;
};

std::unique_ptr<Engine> make_moe_ondemand(const model::OpCosts& costs);
std::unique_ptr<Engine> make_deepspeed_mii(const model::OpCosts& costs);
std::unique_ptr<Engine> make_mixtral_offloading(const model::OpCosts& costs);
std::unique_ptr<Engine> make_pregated_moe(const model::OpCosts& costs);
/// EdgeMoE (Yi et al.): expert-wise ~4-bit quantization + predictive
/// compute-I/O preloading pipeline.
std::unique_ptr<Engine> make_edgemoe(const model::OpCosts& costs);
/// MoE-Infinity (Xue et al.): activation-aware prefetching driven by
/// sequence-level expert activation patterns.
std::unique_ptr<Engine> make_moe_infinity(const model::OpCosts& costs);

}  // namespace daop::engines
