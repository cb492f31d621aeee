// Routing traces: the per-token, per-layer gate information that the
// performance-plane engines schedule against.
//
// Layout. Each phase of a trace is a handful of flat blocks, all built once
// when the trace is built: the scores as one [layer][token][expert] float
// array (plus, for decode, one for the one-layer-ahead predictions), the
// top-k expert ids of every cell, and the per-layer activation-count
// matrix. Replay reads the stored ids and counts; nothing re-ranks a
// recorded gate. A trace is built by load_trace or the shape constructor
// plus set_cell (hand-built traces), or by TraceGenerator::generate, which
// writes every cell in place into blocks it never zero-fills (LayerWriter).
//
// Copy-on-write. A phase keeps its blocks in one reference-counted heap
// buffer, so copying a trace (or a phase) shares them: a refcount bump, no
// allocation. SequenceTrace::set_cell is the only writer of a built trace;
// when the blocks are shared it first clones them, so a write to one copy
// never shows in another. The shape constructor (and load_trace) build
// fresh blocks; a default-constructed trace allocates nothing.
//
// Views. TokenRouting and LayerTokens are read-only views into the blocks,
// valid while the trace that produced them is alive and unmodified.
//
// Threads. Copying, reading and destroying copies of one trace from many
// threads at once is safe, as for any const value. Concurrent set_cell
// calls on disjoint cells are legal only on an unshared trace (no other
// copy holds its blocks); a shared trace would detach in each of them at
// once. TraceGenerator's per-layer tasks each write their own layer's rows
// through a LayerWriter before the trace is ever copied.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.hpp"

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
/// Copies share the blocks (see the file comment).
class PhaseRouting {
 public:
  /// The handle a layer iterator holds.
  struct Ref {
    const PhaseRouting* phase = nullptr;
    LayerTokens operator[](std::size_t layer) const { return (*phase)[layer]; }
  };
  using iterator = IndexIterator<Ref, LayerTokens>;

  PhaseRouting() = default;
  /// Shares `o`'s blocks.
  PhaseRouting(const PhaseRouting& o) noexcept
      : n_layers_(o.n_layers_),
        n_tokens_(o.n_tokens_),
        n_experts_(o.n_experts_),
        top_k_(o.top_k_),
        blocks_(o.blocks_) {
    if (blocks_ != nullptr) {
      blocks_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  /// Takes `o`'s blocks, leaving `o` empty.
  PhaseRouting(PhaseRouting&& o) noexcept { swap(o); }
  /// Copy and move assignment (self-assignment included).
  PhaseRouting& operator=(PhaseRouting o) noexcept {
    swap(o);
    return *this;
  }
  ~PhaseRouting() { release(); }

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

  /// One heap buffer per phase: this header, then the blocks (the
  /// counts, the scores and predictions, then the ids and flags, so each
  /// block is aligned with no padding). Copies of the phase share the
  /// buffer; the last one frees it.
  struct Blocks {
    std::atomic<int> refs{1};
    std::size_t bytes = 0;             ///< the whole buffer
    double* counts = nullptr;          ///< [layer][expert]
    float* scores = nullptr;           ///< [layer][token][expert]
    ExpertId* ids = nullptr;           ///< [layer][token][top_k]
    // Decode only (null for prefill):
    float* pred_scores = nullptr;      ///< [layer][token][expert]
    ExpertId* pred_ids = nullptr;      ///< [layer][token][top_k]
    std::uint8_t* has_pred = nullptr;  ///< [layer][token]
  };

  /// The cell at (layer, token); indices are not checked.
  TokenRouting cell(int layer, int token) const {
    const std::size_t c = cell_index(layer, token);
    const auto E = static_cast<std::size_t>(n_experts_);
    const auto K = static_cast<std::size_t>(top_k_);
    const Blocks& b = *blocks_;
    TokenRouting r{{b.scores + c * E, E}, {}, {b.ids + c * K, K}, {}};
    if (b.has_pred != nullptr && b.has_pred[c] != 0) {
      r.pred_scores = {b.pred_scores + c * E, E};
      r.predicted = {b.pred_ids + c * K, K};
    }
    return r;
  }

  /// Tokens routed to each expert at `layer` (length n_experts); indices
  /// are not checked.
  std::span<const double> counts(int layer) const {
    return {blocks_->counts + static_cast<std::size_t>(layer) * n_experts_,
            static_cast<std::size_t>(n_experts_)};
  }

  /// Shapes fresh blocks for n_layers x n_tokens all-zero cells.
  void reset(int n_layers, int n_tokens, int n_experts, int top_k,
             bool with_pred);

  /// Shapes fresh blocks for n_layers x n_tokens cells with zero counts,
  /// leaving every other byte unwritten.
  void reset_unfilled(int n_layers, int n_tokens, int n_experts, int top_k,
                      bool with_pred);

  /// An unshared buffer laid out for this phase's dimensions, blocks
  /// unset.
  Blocks* allocate(bool with_pred) const;

  /// The blocks, cloned first if another phase shares them; set_cell's
  /// only way in.
  Blocks& own_blocks();

  /// Drops this phase's reference, freeing the blocks with the last one.
  void release() noexcept;

  void swap(PhaseRouting& o) noexcept {
    std::swap(n_layers_, o.n_layers_);
    std::swap(n_tokens_, o.n_tokens_);
    std::swap(n_experts_, o.n_experts_);
    std::swap(top_k_, o.top_k_);
    std::swap(blocks_, o.blocks_);
  }

  std::size_t cell_index(int layer, int token) const {
    return static_cast<std::size_t>(layer) *
               static_cast<std::size_t>(n_tokens_) +
           static_cast<std::size_t>(token);
  }

  int n_layers_ = 0;
  int n_tokens_ = 0;
  int n_experts_ = 0;
  int top_k_ = 0;
  Blocks* blocks_ = nullptr;  ///< null until reset
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

  /// The cell at (phase, layer, token); indices are checked, and an
  /// out-of-range cell fails naming the cell and the phase's shape.
  TokenRouting at(Phase phase, int layer, int token) const {
    const PhaseRouting& p = phase_block(phase);
    if (layer < 0 || layer >= p.n_layers_ || token < 0 ||
        token >= p.n_tokens_) [[unlikely]] {
      reject_cell(phase, layer, token);
    }
    return p.cell(layer, token);
  }

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
  /// counts, first cloning the phase's blocks if another copy shares them
  /// (so other copies keep their contents). An empty `pred_scores` means
  /// no prediction; prefill cells take none. NaN scores are rejected (they
  /// have no rank).
  void set_cell(Phase phase, int layer, int token,
                std::span<const float> scores,
                std::span<const float> pred_scores = {});

 private:
  friend class TraceGenerator;
  class LayerWriter;

  /// Selects the constructor that leaves the cells unwritten.
  struct Unfilled {};
  /// A trace of this shape whose counts are zero and whose cells are
  /// unwritten: every (phase, layer, token) cell must be committed once
  /// through a LayerWriter before the trace is read or copied.
  SequenceTrace(Unfilled, int n_layers, int n_experts, int top_k,
                int prompt_len, int gen_len);

  const PhaseRouting& phase_block(Phase phase) const {
    return phase == Phase::Prefill ? prefill : decode;
  }

  /// at()'s and counts()' range failures: throw CheckError naming the
  /// requested cell or layer and the phase's shape.
  [[noreturn]] DAOP_COLD_ void reject_cell(Phase phase, int layer,
                                           int token) const;
  [[noreturn]] DAOP_COLD_ void reject_layer(Phase phase, int layer) const;
};

/// TraceGenerator's in-place writer for one layer of one phase of an
/// unfilled trace. The caller writes cell `token`'s scores into
/// scores(token) (and, for a decode cell with a prediction, the prediction
/// into pred_scores(token)), then commit()s the cell. Writers of different
/// layers touch disjoint bytes and may run on different threads at once.
class SequenceTrace::LayerWriter {
 public:
  LayerWriter(SequenceTrace& trace, Phase phase, int layer);

  /// The cell's score row (n_experts floats); `token` is not checked.
  float* scores(int token) const { return blocks_.scores + cell(token) * E_; }
  /// The cell's prediction row; decode only, `token` not checked.
  float* pred_scores(int token) const {
    return blocks_.pred_scores + cell(token) * E_;
  }

  /// Ranks the written scores (and the prediction when `with_pred`, decode
  /// only) into the cell's stored ids, and adds the cell to the layer's
  /// counts. A decode cell without a prediction gets zero prediction
  /// scores and ids, as set_cell leaves them. NaN scores are rejected.
  void commit(int token, bool with_pred);

 private:
  LayerWriter(PhaseRouting& phase, int layer);

  std::size_t cell(int token) const {
    return first_cell_ + static_cast<std::size_t>(token);
  }

  PhaseRouting::Blocks& blocks_;
  double* counts_;  ///< this layer's row
  std::size_t first_cell_;
  std::size_t E_;
  std::size_t K_;
  int layer_;
};

inline std::size_t LayerTokens::Tokens::size() const {
  return phase_ == nullptr ? 0 : static_cast<std::size_t>(phase_->n_tokens());
}

inline TokenRouting LayerTokens::Tokens::operator[](std::size_t token) const {
  return phase_->cell(layer_, static_cast<int>(token));
}

}  // namespace daop::data
