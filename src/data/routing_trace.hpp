// Routing traces: the per-token, per-layer gate information that the
// performance-plane engines schedule against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace daop::data {

/// Inference phase.
enum class Phase { Prefill, Decode };

/// Gate information for one token at one layer.
struct TokenRouting {
  /// True gate logits, length n_experts.
  std::vector<float> scores;
  /// One-layer-ahead predicted logits for THIS layer (produced while the
  /// previous layer executed). Empty for layer 0, where no earlier layer
  /// exists to predict from. Decode phase only.
  std::vector<float> pred_scores;
};

/// All tokens of one phase at one layer.
struct LayerTokens {
  std::vector<TokenRouting> tokens;
};

/// Complete routing trace of a single sequence through a model.
struct SequenceTrace {
  int n_experts = 0;
  int top_k = 0;
  int prompt_len = 0;
  int gen_len = 0;

  /// Indexed [layer][token].
  std::vector<LayerTokens> prefill;
  std::vector<LayerTokens> decode;

  int n_layers() const { return static_cast<int>(decode.size()); }

  const TokenRouting& at(Phase phase, int layer, int token) const;

  /// Top-k expert ids for a token (descending true score).
  std::vector<int> selected(Phase phase, int layer, int token) const;
  /// selected() into a caller-owned buffer (cleared, capacity kept).
  void selected_into(Phase phase, int layer, int token,
                     std::vector<int>& out) const;

  /// Top-k expert ids by predicted score; empty when no prediction exists.
  std::vector<int> predicted(int layer, int token) const;
  /// predicted() into a caller-owned buffer (cleared, capacity kept).
  void predicted_into(int layer, int token, std::vector<int>& out) const;

  /// Activation-count matrix for a phase: out[layer][expert] = number of
  /// tokens routed to that expert (paper observation ②'s P / D matrices).
  std::vector<std::vector<double>> activation_counts(Phase phase) const;

  /// Activation counts restricted to decode tokens [t0, t1).
  std::vector<std::vector<double>> decode_window_counts(int t0, int t1) const;
};

}  // namespace daop::data
