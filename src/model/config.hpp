// Structural configuration of decoder-only MoE models (paper Table III).
//
// The same config type serves both planes:
//  - the performance simulator only uses the parameter-count accessors to
//    derive op flops/bytes at full scale (Mixtral 8x7B, Phi-3.5 MoE);
//  - the functional plane instantiates reduced-scale configs with identical
//    architecture (RMSNorm, GQA attention with RoPE, SwiGLU experts, top-2
//    softmax gating) and actually runs the numbers.
#pragma once

#include <cstdint>
#include <string>

namespace daop::model {

/// RMSNorm epsilon, shared by every model preset.
inline constexpr float kRmsNormEps = 1e-5F;

struct ModelConfig {
  std::string name;

  int n_layers = 0;
  int d_model = 0;
  int n_heads = 0;
  int n_kv_heads = 0;
  int head_dim = 0;
  int d_ff = 0;        ///< expert hidden size (SwiGLU)
  int n_experts = 0;   ///< experts per layer
  int top_k = 0;       ///< experts activated per token
  int vocab_size = 0;

  float rope_theta = 10000.0F;

  /// Weight dtype size used by the performance plane (fp16 => 2 bytes).
  double bytes_per_param = 2.0;

  // ---- Derived parameter counts (per layer unless stated) ----

  /// One SwiGLU expert: w1 + w3 ([d_ff, d_model]) and w2 ([d_model, d_ff]).
  std::int64_t expert_params() const {
    return 3LL * d_model * d_ff;
  }
  /// GQA attention projections q,k,v,o.
  std::int64_t attn_params() const {
    const std::int64_t q = static_cast<std::int64_t>(d_model) * n_heads * head_dim;
    const std::int64_t kv = 2LL * d_model * n_kv_heads * head_dim;
    const std::int64_t o = static_cast<std::int64_t>(n_heads) * head_dim * d_model;
    return q + kv + o;
  }
  std::int64_t gate_params() const {
    return static_cast<std::int64_t>(d_model) * n_experts;
  }
  /// Everything in a block except experts (the paper's "non-MoE part").
  std::int64_t nonmoe_params_per_layer() const {
    return attn_params() + gate_params() + 2LL * d_model /* norms */;
  }
  std::int64_t expert_params_total() const {
    return static_cast<std::int64_t>(n_layers) * n_experts * expert_params();
  }
  std::int64_t total_params() const {
    return expert_params_total() +
           static_cast<std::int64_t>(n_layers) * nonmoe_params_per_layer() +
           2LL * vocab_size * d_model /* embedding + lm head */ + d_model;
  }

  // ---- Derived byte sizes for the performance plane ----

  double expert_bytes() const { return expert_params() * bytes_per_param; }
  double nonmoe_bytes_per_layer() const {
    return nonmoe_params_per_layer() * bytes_per_param;
  }
  /// One token's hidden state (the expert input/output that crosses PCIe).
  double hidden_state_bytes() const { return d_model * bytes_per_param; }
  /// KV-cache bytes appended per token per layer.
  double kv_bytes_per_token_per_layer() const {
    return 2.0 * n_kv_heads * head_dim * bytes_per_param;
  }
};

/// Mixtral 8x7B: 32 blocks, 8 experts, top-2, 45.1B expert params, 46.6B total.
ModelConfig mixtral_8x7b();

/// Phi-3.5 MoE: 32 blocks, 16 experts, top-2, 40.3B expert params, 41.7B total.
ModelConfig phi35_moe();

/// Reduced-scale Mixtral-style config for functional (numeric) experiments:
/// 8 layers x 8 experts, top-2. Same architecture, laptop-sized.
ModelConfig tiny_mixtral();

/// Reduced-scale Phi-style config: 8 layers x 16 experts, top-2.
ModelConfig tiny_phi();

}  // namespace daop::model
