#include "data/routing_trace.hpp"

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace daop::data {

const TokenRouting& SequenceTrace::at(Phase phase, int layer,
                                      int token) const {
  const auto& layers = phase == Phase::Prefill ? prefill : decode;
  DAOP_CHECK(layer >= 0 && layer < static_cast<int>(layers.size()));
  const auto& lt = layers[static_cast<std::size_t>(layer)];
  DAOP_CHECK(token >= 0 && token < static_cast<int>(lt.tokens.size()));
  return lt.tokens[static_cast<std::size_t>(token)];
}

std::vector<int> SequenceTrace::selected(Phase phase, int layer,
                                         int token) const {
  std::vector<int> out;
  selected_into(phase, layer, token, out);
  return out;
}

void SequenceTrace::selected_into(Phase phase, int layer, int token,
                                  std::vector<int>& out) const {
  topk_indices_into(at(phase, layer, token).scores, top_k, out);
}

std::vector<int> SequenceTrace::predicted(int layer, int token) const {
  std::vector<int> out;
  predicted_into(layer, token, out);
  return out;
}

void SequenceTrace::predicted_into(int layer, int token,
                                   std::vector<int>& out) const {
  const TokenRouting& tr = at(Phase::Decode, layer, token);
  if (tr.pred_scores.empty()) {
    out.clear();
    return;
  }
  topk_indices_into(tr.pred_scores, top_k, out);
}

std::vector<std::vector<double>> SequenceTrace::activation_counts(
    Phase phase) const {
  const auto& layers = phase == Phase::Prefill ? prefill : decode;
  std::vector<std::vector<double>> counts(
      layers.size(), std::vector<double>(static_cast<std::size_t>(n_experts), 0.0));
  std::vector<int> sel;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    for (std::size_t t = 0; t < layers[l].tokens.size(); ++t) {
      topk_indices_into(layers[l].tokens[t].scores, top_k, sel);
      for (int e : sel) counts[l][static_cast<std::size_t>(e)] += 1.0;
    }
  }
  return counts;
}

std::vector<std::vector<double>> SequenceTrace::decode_window_counts(
    int t0, int t1) const {
  DAOP_CHECK_LE(0, t0);
  DAOP_CHECK_LE(t0, t1);
  std::vector<std::vector<double>> counts(
      decode.size(), std::vector<double>(static_cast<std::size_t>(n_experts), 0.0));
  std::vector<int> sel;
  for (std::size_t l = 0; l < decode.size(); ++l) {
    const int hi = std::min<int>(t1, static_cast<int>(decode[l].tokens.size()));
    for (int t = t0; t < hi; ++t) {
      topk_indices_into(decode[l].tokens[static_cast<std::size_t>(t)].scores,
                        top_k, sel);
      for (int e : sel) counts[l][static_cast<std::size_t>(e)] += 1.0;
    }
  }
  return counts;
}

}  // namespace daop::data
