// Maps a ModelConfig onto per-op costs of a simulated platform.
//
// This is the bridge between src/model (what work an op is) and src/sim
// (how long that work takes on a device/link). All engines in src/engines
// and src/core consume OpCosts instead of talking to the cost model
// directly, so every engine prices identical work identically.
#pragma once

#include "model/config.hpp"
#include "sim/cost_model.hpp"

namespace daop::model {

/// Per-op timing for one model on one platform. Times in seconds.
class OpCosts {
 public:
  OpCosts(const ModelConfig& cfg, const sim::CostModel& cm);

  const ModelConfig& config() const { return cfg_; }
  const sim::CostModel& cost_model() const { return cm_; }

  // ---- Decode-phase (single token) ----

  /// Non-MoE part of one block on the GPU: norms, GQA attention (including
  /// the KV-cache read at context length `ctx`), residuals and the gate.
  double nonmoe_gpu(int ctx) const;
  /// Same work on the CPU.
  double nonmoe_cpu(int ctx) const;

  /// One expert applied to one token (constants computed at construction).
  double expert_gpu() const { return expert_gpu_; }
  double expert_cpu() const { return expert_cpu_; }
  /// CPU expert with weight bytes scaled by `weight_bytes_factor` (< 1 for
  /// quantized experts — the CPU path is memory-bound, so time scales with
  /// bytes until the compute roofline takes over).
  double expert_cpu_scaled(double weight_bytes_factor) const;

  // ---- Prefill-phase (n tokens through the same op) ----

  double nonmoe_gpu_prefill(int n_tokens) const;
  /// One expert applied to `n_tokens` routed tokens.
  double expert_gpu_prefill(int n_tokens) const;
  double expert_cpu_prefill(int n_tokens) const;

  // ---- Batched decode (n_tokens sequences advancing one step) ----

  /// Non-MoE part of one block for a decode batch of `n_tokens` sequences
  /// at context length `ctx`.
  double nonmoe_gpu_batch(int n_tokens, int ctx) const;
  /// One expert applied to `n_tokens` batched decode tokens; identical
  /// work-shape to the prefill accessors (provided for intent clarity).
  double expert_gpu_batch(int n_tokens) const { return expert_gpu_prefill(n_tokens); }
  double expert_cpu_batch(int n_tokens) const { return expert_cpu_prefill(n_tokens); }

  // ---- Transfers ----

  /// Migrating one expert's weights host -> GPU.
  double expert_migration() const;
  /// Hidden-state transfer for `n_tokens` tokens, each direction. The
  /// single-token times are constants computed at construction.
  double activations_h2d(int n_tokens = 1) const {
    return n_tokens == 1 ? acts_h2d_ : acts_h2d_time(n_tokens);
  }
  double activations_d2h(int n_tokens = 1) const {
    return n_tokens == 1 ? acts_d2h_ : acts_d2h_time(n_tokens);
  }

  /// Convenience: a full block on a device with all weights resident
  /// (non-MoE + top_k experts), decode phase. Matches the paper's Table I
  /// "block on CPU / GPU" measurements.
  double full_block_gpu(int ctx) const;
  double full_block_cpu(int ctx) const;

 private:
  double nonmoe_time(const sim::DeviceSpec& dev, int n_tokens, int ctx) const;
  double expert_time(const sim::DeviceSpec& dev, int n_tokens) const;
  double acts_h2d_time(int n_tokens) const;
  double acts_d2h_time(int n_tokens) const;

  ModelConfig cfg_;
  sim::CostModel cm_;
  // Single-token decode constants: every decode (token, layer) reads them.
  double expert_gpu_ = 0.0;
  double expert_cpu_ = 0.0;
  double acts_h2d_ = 0.0;
  double acts_d2h_ = 0.0;
};

/// Largest Expert Cache Ratio that fits a platform's GPU after the non-MoE
/// weights, embeddings and a working reserve (KV cache + activations,
/// `reserve_fraction` of GPU memory) are resident. This is what "full GPU
/// memory utilization" resolves to in the paper's Fig. 9 / Table IV setup
/// (~46.9% for Mixtral 8x7B on a 48 GB A6000).
double max_expert_cache_ratio(const ModelConfig& cfg,
                              const sim::PlatformSpec& platform,
                              double reserve_fraction = 0.06);

}  // namespace daop::model
