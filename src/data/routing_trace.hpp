// Routing traces: the per-token, per-layer gate information that the
// performance-plane engines schedule against.
//
// Layout. Each phase of a trace is a handful of flat blocks, all built once
// when the trace is built: the scores as one [layer][token][expert] float
// array (plus, for decode, one for the one-layer-ahead predictions), the
// top-k expert ids of every cell, and the per-layer activation-count
// matrix. Replay reads the stored ids and counts; nothing re-ranks a
// recorded gate. TokenRouting and LayerTokens are read-only views into
// those blocks, valid while the trace that produced them is alive and
// unmodified. A trace is built by TraceGenerator::generate, load_trace, or
// the shape constructor plus set_cell (hand-built traces).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

namespace daop::data {

/// Inference phase.
enum class Phase { Prefill, Decode };

/// Expert id as a trace stores it.
using ExpertId = std::uint8_t;

/// Largest expert count a trace can hold: every id must fit an ExpertId.
inline constexpr int kMaxTraceExperts =
    std::numeric_limits<ExpertId>::max() + 1;

/// Largest number of score values one trace may store, counting each
/// decode cell twice (scores and prediction): 2^28 floats, 1 GiB. Guards
/// the flat blocks against shapes read from untrusted trace headers.
inline constexpr std::uint64_t kMaxTraceScoreValues = std::uint64_t{1} << 28;

/// Checks a trace shape before anything is sized from it: n_layers,
/// prompt_len > 0, gen_len >= 0, 0 < top_k <= n_experts <= kMaxTraceExperts,
/// and n_layers x (prompt_len + 2 gen_len) x n_experts score values, an
/// overflow-checked product, at most kMaxTraceScoreValues. Throws
/// CheckError whose message starts with `what` (e.g. the header line the
/// shape was read from).
void check_trace_shape(int n_layers, int n_experts, int top_k, int prompt_len,
                       int gen_len, std::string_view what);

/// Read-only view of the gate information for one token at one layer.
struct TokenRouting {
  /// True gate logits, length n_experts.
  std::span<const float> scores;
  /// One-layer-ahead predicted logits for THIS layer (produced while the
  /// previous layer executed). Empty where no prediction exists, e.g.
  /// layer 0, which has no earlier layer to predict from. Decode only.
  std::span<const float> pred_scores;
  /// The top_k expert ids by `scores`, ordered (score desc, index asc) —
  /// exactly topk_indices(scores, top_k).
  std::span<const ExpertId> selected;
  /// The top_k expert ids by `pred_scores`; empty when pred_scores is.
  std::span<const ExpertId> predicted;
};

/// Iterator over a cheap, copyable indexable view: yields `view[i]` by
/// value and stays valid while the trace behind the view does.
template <class View, class Value>
class IndexIterator {
 public:
  using value_type = Value;
  using difference_type = std::ptrdiff_t;

  IndexIterator() = default;
  IndexIterator(View view, std::size_t i) : view_(view), i_(i) {}

  Value operator*() const { return view_[i_]; }
  IndexIterator& operator++() {
    ++i_;
    return *this;
  }
  IndexIterator operator++(int) {
    IndexIterator old = *this;
    ++i_;
    return old;
  }
  bool operator==(const IndexIterator& o) const { return i_ == o.i_; }

 private:
  View view_{};
  std::size_t i_ = 0;
};

class PhaseRouting;

/// Read-only view of all tokens of one phase at one layer.
struct LayerTokens {
  /// The layer's cells in token order.
  class Tokens {
   public:
    using iterator = IndexIterator<Tokens, TokenRouting>;

    Tokens() = default;
    Tokens(const PhaseRouting* phase, int layer)
        : phase_(phase), layer_(layer) {}

    std::size_t size() const;
    bool empty() const { return size() == 0; }
    TokenRouting operator[](std::size_t token) const;
    iterator begin() const { return {*this, 0}; }
    iterator end() const { return {*this, size()}; }

   private:
    const PhaseRouting* phase_ = nullptr;
    int layer_ = 0;
  };

  Tokens tokens;
};

/// One phase of a trace as flat blocks; iterates as a range of layers.
class PhaseRouting {
 public:
  /// The handle a layer iterator holds.
  struct Ref {
    const PhaseRouting* phase = nullptr;
    LayerTokens operator[](std::size_t layer) const { return (*phase)[layer]; }
  };
  using iterator = IndexIterator<Ref, LayerTokens>;

  /// Number of layers.
  std::size_t size() const { return static_cast<std::size_t>(n_layers_); }
  bool empty() const { return n_layers_ == 0; }
  LayerTokens operator[](std::size_t layer) const {
    return LayerTokens{{this, static_cast<int>(layer)}};
  }
  iterator begin() const { return {Ref{this}, 0}; }
  iterator end() const { return {Ref{this}, size()}; }

  /// Tokens per layer.
  int n_tokens() const { return n_tokens_; }

 private:
  friend struct SequenceTrace;
  friend class LayerTokens::Tokens;

  /// The cell at (layer, token); indices are not checked.
  TokenRouting cell(int layer, int token) const {
    const std::size_t c = cell_index(layer, token);
    const auto E = static_cast<std::size_t>(n_experts_);
    const auto K = static_cast<std::size_t>(top_k_);
    TokenRouting r{{scores_.data() + c * E, E}, {}, {ids_.data() + c * K, K},
                   {}};
    if (!has_pred_.empty() && has_pred_[c] != 0) {
      r.pred_scores = {pred_scores_.data() + c * E, E};
      r.predicted = {pred_ids_.data() + c * K, K};
    }
    return r;
  }

  /// Tokens routed to each expert at `layer` (length n_experts); indices
  /// are not checked.
  std::span<const double> counts(int layer) const {
    return {counts_.data() + static_cast<std::size_t>(layer) * n_experts_,
            static_cast<std::size_t>(n_experts_)};
  }

  /// Shapes the blocks for n_layers x n_tokens all-zero cells.
  void reset(int n_layers, int n_tokens, int n_experts, int top_k,
             bool with_pred);

  std::size_t cell_index(int layer, int token) const {
    return static_cast<std::size_t>(layer) *
               static_cast<std::size_t>(n_tokens_) +
           static_cast<std::size_t>(token);
  }

  int n_layers_ = 0;
  int n_tokens_ = 0;
  int n_experts_ = 0;
  int top_k_ = 0;
  std::vector<float> scores_;        ///< [layer][token][expert]
  std::vector<ExpertId> ids_;        ///< [layer][token][top_k]
  std::vector<double> counts_;       ///< [layer][expert]
  // Decode only (empty for prefill):
  std::vector<float> pred_scores_;   ///< [layer][token][expert]
  std::vector<ExpertId> pred_ids_;   ///< [layer][token][top_k]
  std::vector<std::uint8_t> has_pred_;  ///< [layer][token]
};

/// Complete routing trace of a single sequence through a model.
///
/// The dimensions are set by the shape constructor; treat them as
/// read-only (they describe the blocks in `prefill` and `decode`).
struct SequenceTrace {
  SequenceTrace() = default;
  /// A trace of this shape with every score zero (so every cell selects
  /// experts 0..top_k-1) and no predictions; check_trace_shape checks the
  /// shape first.
  SequenceTrace(int n_layers, int n_experts, int top_k, int prompt_len,
                int gen_len);

  int n_experts = 0;
  int top_k = 0;
  int prompt_len = 0;
  int gen_len = 0;

  /// Ranges of layers, each a range of token cells.
  PhaseRouting prefill;
  PhaseRouting decode;

  int n_layers() const { return static_cast<int>(decode.size()); }

  /// The cell at (phase, layer, token); indices are checked.
  TokenRouting at(Phase phase, int layer, int token) const;

  /// Top-k expert ids for a token (descending true score).
  std::span<const ExpertId> selected(Phase phase, int layer, int token) const {
    return at(phase, layer, token).selected;
  }

  /// Top-k expert ids by predicted score; empty when no prediction exists.
  std::span<const ExpertId> predicted(int layer, int token) const {
    return at(Phase::Decode, layer, token).predicted;
  }

  /// Row `layer` of the phase's activation-count matrix: tokens routed to
  /// each expert (paper observation ②'s P / D matrices). Checked.
  std::span<const double> counts(Phase phase, int layer) const;

  /// The whole activation-count matrix: out[layer][expert].
  std::vector<std::vector<double>> activation_counts(Phase phase) const;

  /// Activation counts restricted to decode tokens [t0, t1).
  std::vector<std::vector<double>> decode_window_counts(int t0, int t1) const;

  /// Overwrites one cell and refreshes its stored ids and the phase's
  /// counts. An empty `pred_scores` means no prediction; prefill cells
  /// take none. NaN scores are rejected (they have no rank).
  void set_cell(Phase phase, int layer, int token,
                std::span<const float> scores,
                std::span<const float> pred_scores = {});

 private:
  const PhaseRouting& phase_block(Phase phase) const {
    return phase == Phase::Prefill ? prefill : decode;
  }
};

inline std::size_t LayerTokens::Tokens::size() const {
  return phase_ == nullptr ? 0 : static_cast<std::size_t>(phase_->n_tokens());
}

inline TokenRouting LayerTokens::Tokens::operator[](std::size_t token) const {
  return phase_->cell(layer_, static_cast<int>(token));
}

}  // namespace daop::data
