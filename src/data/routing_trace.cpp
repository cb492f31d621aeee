#include "data/routing_trace.hpp"

#include <algorithm>
#include <cstring>
#include <new>
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

/// The next `n` values of type T at `p`, advancing `p` past them.
template <class T>
T* carve(char*& p, std::size_t n) {
  T* block = reinterpret_cast<T*>(p);
  p += n * sizeof(T);
  return block;
}

}  // namespace

PhaseRouting::Blocks* PhaseRouting::allocate(bool with_pred) const {
  // The blocks start right after the header, the doubles first.
  static_assert(sizeof(Blocks) % alignof(double) == 0);
  const std::size_t cells = static_cast<std::size_t>(n_layers_) *
                            static_cast<std::size_t>(n_tokens_);
  const std::size_t n_counts = static_cast<std::size_t>(n_layers_) *
                               static_cast<std::size_t>(n_experts_);
  const std::size_t n_scores = cells * static_cast<std::size_t>(n_experts_);
  const std::size_t n_ids = cells * static_cast<std::size_t>(top_k_);
  const std::size_t per_pred = with_pred ? 2 : 1;
  const std::size_t bytes =
      sizeof(Blocks) + n_counts * sizeof(double) +
      per_pred * (n_scores * sizeof(float) + n_ids * sizeof(ExpertId)) +
      (with_pred ? cells : 0);
  void* mem = ::operator new(bytes);
  auto* b = new (mem) Blocks;
  b->bytes = bytes;
  char* p = static_cast<char*>(mem) + sizeof(Blocks);
  b->counts = carve<double>(p, n_counts);
  b->scores = carve<float>(p, n_scores);
  if (with_pred) b->pred_scores = carve<float>(p, n_scores);
  b->ids = carve<ExpertId>(p, n_ids);
  if (with_pred) {
    b->pred_ids = carve<ExpertId>(p, n_ids);
    b->has_pred = carve<std::uint8_t>(p, cells);
  }
  return b;
}

void PhaseRouting::reset_unfilled(int n_layers, int n_tokens, int n_experts,
                                  int top_k, bool with_pred) {
  PhaseRouting fresh;
  fresh.n_layers_ = n_layers;
  fresh.n_tokens_ = n_tokens;
  fresh.n_experts_ = n_experts;
  fresh.top_k_ = top_k;
  fresh.blocks_ = fresh.allocate(with_pred);
  std::fill_n(fresh.blocks_->counts,
              static_cast<std::size_t>(n_layers) *
                  static_cast<std::size_t>(n_experts),
              0.0);
  swap(fresh);
}

void PhaseRouting::reset(int n_layers, int n_tokens, int n_experts,
                         int top_k, bool with_pred) {
  reset_unfilled(n_layers, n_tokens, n_experts, top_k, with_pred);
  Blocks& b = *blocks_;
  const std::size_t cells = static_cast<std::size_t>(n_layers) *
                            static_cast<std::size_t>(n_tokens);
  const auto E = static_cast<std::size_t>(n_experts);
  const auto K = static_cast<std::size_t>(top_k);
  std::fill_n(b.scores, cells * E, 0.0F);
  // An all-zero cell selects experts 0..top_k-1 (the tie order), so each
  // of those experts starts with n_tokens activations per layer.
  for (std::size_t c = 0; c < cells; ++c) {
    for (std::size_t j = 0; j < K; ++j) {
      b.ids[c * K + j] = static_cast<ExpertId>(j);
    }
  }
  for (std::size_t l = 0; l < static_cast<std::size_t>(n_layers); ++l) {
    std::fill_n(b.counts + l * E, K, static_cast<double>(n_tokens));
  }
  if (with_pred) {
    std::fill_n(b.pred_scores, cells * E, 0.0F);
    std::fill_n(b.pred_ids, cells * K, ExpertId{0});
    std::fill_n(b.has_pred, cells, std::uint8_t{0});
  }
}

PhaseRouting::Blocks& PhaseRouting::own_blocks() {
  // Acquire pairs with the release in another phase's release(): that
  // phase's reads of the blocks happen before the writes that follow.
  if (blocks_->refs.load(std::memory_order_acquire) != 1) {
    Blocks* own = allocate(blocks_->has_pred != nullptr);
    // Same shape, same layout: the blocks copy as one run of bytes.
    std::memcpy(own->counts, blocks_->counts, own->bytes - sizeof(Blocks));
    release();
    blocks_ = own;
  }
  return *blocks_;
}

void PhaseRouting::release() noexcept {
  if (blocks_ != nullptr &&
      blocks_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    blocks_->~Blocks();
    ::operator delete(blocks_);
  }
  blocks_ = nullptr;
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

SequenceTrace::SequenceTrace(Unfilled, int n_layers, int n_experts_in,
                             int top_k_in, int prompt_len_in, int gen_len_in)
    : n_experts(n_experts_in),
      top_k(top_k_in),
      prompt_len(prompt_len_in),
      gen_len(gen_len_in) {
  check_trace_shape(n_layers, n_experts, top_k, prompt_len, gen_len,
                    "bad trace shape");
  prefill.reset_unfilled(n_layers, prompt_len, n_experts, top_k,
                         /*with_pred=*/false);
  decode.reset_unfilled(n_layers, gen_len, n_experts, top_k,
                        /*with_pred=*/true);
}

SequenceTrace::LayerWriter::LayerWriter(SequenceTrace& trace, Phase phase,
                                        int layer)
    : LayerWriter(phase == Phase::Prefill ? trace.prefill : trace.decode,
                  layer) {}

SequenceTrace::LayerWriter::LayerWriter(PhaseRouting& p, int layer)
    : blocks_(*p.blocks_),
      counts_(blocks_.counts + static_cast<std::size_t>(layer) *
                                   static_cast<std::size_t>(p.n_experts_)),
      first_cell_(p.cell_index(layer, 0)),
      E_(static_cast<std::size_t>(p.n_experts_)),
      K_(static_cast<std::size_t>(p.top_k_)),
      layer_(layer) {}

void SequenceTrace::LayerWriter::commit(int token, bool with_pred) {
  const std::size_t c = cell(token);
  const std::span<const float> scores(blocks_.scores + c * E_, E_);
  const std::span<const float> pred =
      with_pred ? std::span<const float>(blocks_.pred_scores + c * E_, E_)
                : std::span<const float>();
  DAOP_CHECK_MSG(!has_nan(scores) && !has_nan(pred),
                 "NaN gate score at layer " << layer_ << " token " << token);
  const std::span<ExpertId> ids(blocks_.ids + c * K_, K_);
  topk_indices_into(scores, ids);
  for (const ExpertId e : ids) counts_[e] += 1.0;
  if (blocks_.has_pred == nullptr) return;  // prefill
  blocks_.has_pred[c] = with_pred ? 1 : 0;
  const std::span<ExpertId> pred_ids(blocks_.pred_ids + c * K_, K_);
  if (with_pred) {
    topk_indices_into(pred, pred_ids);
  } else {
    std::fill_n(blocks_.pred_scores + c * E_, E_, 0.0F);
    std::fill_n(pred_ids.begin(), K_, ExpertId{0});
  }
}

namespace {
[[noreturn]] void reject_out_of_range(Phase phase, const PhaseRouting& p,
                                      const std::string& what) {
  const char* name = phase == Phase::Prefill ? "prefill" : "decode";
  ::daop::detail::check_failed(
      "trace index in range", __FILE__, __LINE__,
      std::string(name) + " " + what + " is outside the trace's " + name +
          " shape of " + std::to_string(p.size()) + " layers x " +
          std::to_string(p.n_tokens()) + " tokens");
}
}  // namespace

void SequenceTrace::reject_cell(Phase phase, int layer, int token) const {
  reject_out_of_range(phase, phase_block(phase),
                      "cell (layer " + std::to_string(layer) + ", token " +
                          std::to_string(token) + ")");
}

void SequenceTrace::reject_layer(Phase phase, int layer) const {
  reject_out_of_range(phase, phase_block(phase),
                      "layer " + std::to_string(layer));
}

std::span<const double> SequenceTrace::counts(Phase phase, int layer) const {
  const PhaseRouting& p = phase_block(phase);
  if (layer < 0 || layer >= p.n_layers_) [[unlikely]] {
    reject_layer(phase, layer);
  }
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
  PhaseRouting::Blocks& b = p.own_blocks();
  std::copy(scores.begin(), scores.end(), b.scores + c * E);
  const std::span<ExpertId> ids(b.ids + c * K, K);
  double* row = b.counts + static_cast<std::size_t>(layer) * E;
  for (const ExpertId e : ids) row[e] -= 1.0;
  topk_indices_into(scores, ids);
  for (const ExpertId e : ids) row[e] += 1.0;
  if (phase == Phase::Decode) {
    b.has_pred[c] = pred_scores.empty() ? 0 : 1;
    if (!pred_scores.empty()) {
      std::copy(pred_scores.begin(), pred_scores.end(),
                b.pred_scores + c * E);
      topk_indices_into(pred_scores,
                        std::span<ExpertId>(b.pred_ids + c * K, K));
    }
  }
}

}  // namespace daop::data
