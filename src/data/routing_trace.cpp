#include "data/routing_trace.hpp"

#include <algorithm>
#include <string>

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace daop::data {
namespace {

/// The top-k kernel cannot rank NaN (a NaN cell would store ids out of
/// range), so set_cell rejects NaN scores.
bool has_nan(std::span<const float> x) {
  return std::any_of(x.begin(), x.end(), [](float v) { return v != v; });
}

}  // namespace

void PhaseRouting::reset(int n_layers, int n_tokens, int n_experts,
                         int top_k, bool with_pred) {
  n_layers_ = n_layers;
  n_tokens_ = n_tokens;
  n_experts_ = n_experts;
  top_k_ = top_k;
  const std::size_t cells = static_cast<std::size_t>(n_layers) *
                            static_cast<std::size_t>(n_tokens);
  const auto E = static_cast<std::size_t>(n_experts);
  const auto K = static_cast<std::size_t>(top_k);
  scores_.assign(cells * E, 0.0F);
  // An all-zero cell selects experts 0..top_k-1 (the tie order), so each
  // of those experts starts with n_tokens activations per layer.
  ids_.resize(cells * K);
  for (std::size_t c = 0; c < cells; ++c) {
    for (std::size_t j = 0; j < K; ++j) {
      ids_[c * K + j] = static_cast<ExpertId>(j);
    }
  }
  counts_.assign(static_cast<std::size_t>(n_layers) * E, 0.0);
  for (std::size_t l = 0; l < static_cast<std::size_t>(n_layers); ++l) {
    std::fill_n(counts_.begin() + static_cast<std::ptrdiff_t>(l * E), K,
                static_cast<double>(n_tokens));
  }
  if (with_pred) {
    pred_scores_.assign(cells * E, 0.0F);
    pred_ids_.assign(cells * K, 0);
    has_pred_.assign(cells, 0);
  }
}

void check_trace_shape(int n_layers, int n_experts, int top_k, int prompt_len,
                       int gen_len, std::string_view what) {
  DAOP_CHECK_MSG(n_layers > 0 && n_experts > 0 && top_k > 0 &&
                     top_k <= n_experts && prompt_len > 0 && gen_len >= 0,
                 what << ": need n_layers, n_experts, prompt_len > 0, "
                         "0 < top_k <= n_experts and gen_len >= 0");
  DAOP_CHECK_MSG(n_experts <= kMaxTraceExperts,
                 what << ": n_experts " << n_experts
                      << " exceeds the trace id bound " << kMaxTraceExperts);
  // prompt_len + 2 gen_len < 3 * 2^31 cannot overflow; the products can.
  const std::uint64_t rows = static_cast<std::uint64_t>(prompt_len) +
                             2 * static_cast<std::uint64_t>(gen_len);
  std::uint64_t values = 0;
  const bool overflow =
      __builtin_mul_overflow(static_cast<std::uint64_t>(n_layers), rows,
                             &values) ||
      __builtin_mul_overflow(values, static_cast<std::uint64_t>(n_experts),
                             &values);
  DAOP_CHECK_MSG(!overflow && values <= kMaxTraceScoreValues,
                 what << ": n_layers x (prompt_len + 2 gen_len) x n_experts "
                      << (overflow ? std::string("overflows 64 bits; cap")
                                   : "= " + std::to_string(values) +
                                         " exceeds the cap of")
                      << " " << kMaxTraceScoreValues << " score values");
}

SequenceTrace::SequenceTrace(int n_layers, int n_experts_in, int top_k_in,
                             int prompt_len_in, int gen_len_in)
    : n_experts(n_experts_in),
      top_k(top_k_in),
      prompt_len(prompt_len_in),
      gen_len(gen_len_in) {
  check_trace_shape(n_layers, n_experts, top_k, prompt_len, gen_len,
                    "bad trace shape");
  prefill.reset(n_layers, prompt_len, n_experts, top_k, /*with_pred=*/false);
  decode.reset(n_layers, gen_len, n_experts, top_k, /*with_pred=*/true);
}

TokenRouting SequenceTrace::at(Phase phase, int layer, int token) const {
  const PhaseRouting& p = phase_block(phase);
  DAOP_CHECK(layer >= 0 && layer < static_cast<int>(p.size()));
  DAOP_CHECK(token >= 0 && token < p.n_tokens());
  return p.cell(layer, token);
}

std::span<const double> SequenceTrace::counts(Phase phase, int layer) const {
  const PhaseRouting& p = phase_block(phase);
  DAOP_CHECK(layer >= 0 && layer < static_cast<int>(p.size()));
  return p.counts(layer);
}

std::vector<std::vector<double>> SequenceTrace::activation_counts(
    Phase phase) const {
  const PhaseRouting& p = phase_block(phase);
  std::vector<std::vector<double>> out;
  out.reserve(p.size());
  for (int l = 0; l < static_cast<int>(p.size()); ++l) {
    const std::span<const double> row = p.counts(l);
    out.emplace_back(row.begin(), row.end());
  }
  return out;
}

std::vector<std::vector<double>> SequenceTrace::decode_window_counts(
    int t0, int t1) const {
  DAOP_CHECK_LE(0, t0);
  DAOP_CHECK_LE(t0, t1);
  std::vector<std::vector<double>> counts(
      decode.size(),
      std::vector<double>(static_cast<std::size_t>(decode.n_experts_), 0.0));
  const int hi = std::min(t1, decode.n_tokens());
  for (int l = 0; l < static_cast<int>(decode.size()); ++l) {
    for (int t = t0; t < hi; ++t) {
      for (const ExpertId e : decode.cell(l, t).selected) {
        counts[static_cast<std::size_t>(l)][e] += 1.0;
      }
    }
  }
  return counts;
}

void SequenceTrace::set_cell(Phase phase, int layer, int token,
                             std::span<const float> scores,
                             std::span<const float> pred_scores) {
  PhaseRouting& p = phase == Phase::Prefill ? prefill : decode;
  DAOP_CHECK(layer >= 0 && layer < static_cast<int>(p.size()));
  DAOP_CHECK(token >= 0 && token < p.n_tokens());
  // The shape the blocks were built with, whatever the public fields say.
  const auto E = static_cast<std::size_t>(p.n_experts_);
  const auto K = static_cast<std::size_t>(p.top_k_);
  DAOP_CHECK_EQ(scores.size(), E);
  DAOP_CHECK_MSG(pred_scores.empty() ||
                     (phase == Phase::Decode && pred_scores.size() == E),
                 "predictions are decode-only and hold n_experts scores");
  DAOP_CHECK_MSG(!has_nan(scores) && !has_nan(pred_scores),
                 "NaN gate score at layer " << layer << " token " << token);
  const std::size_t c = p.cell_index(layer, token);
  std::copy(scores.begin(), scores.end(), p.scores_.begin() + c * E);
  const std::span<ExpertId> ids(p.ids_.data() + c * K, K);
  double* row = p.counts_.data() + static_cast<std::size_t>(layer) * E;
  for (const ExpertId e : ids) row[e] -= 1.0;
  topk_indices_into(scores, ids);
  for (const ExpertId e : ids) row[e] += 1.0;
  if (phase == Phase::Decode) {
    p.has_pred_[c] = pred_scores.empty() ? 0 : 1;
    if (!pred_scores.empty()) {
      std::copy(pred_scores.begin(), pred_scores.end(),
                p.pred_scores_.begin() + c * E);
      topk_indices_into(pred_scores,
                        std::span<ExpertId>(p.pred_ids_.data() + c * K, K));
    }
  }
}

}  // namespace daop::data
