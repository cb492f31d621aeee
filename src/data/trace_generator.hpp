// Synthesizes routing traces matching a WorkloadSpec's statistics.
//
// Generative model, per sequence:
//   pref[0]   = skew * z0,  z0 ~ N(0, I_E)
//   pref[l]   = rho * pref[l-1] + sqrt(1-rho^2) * skew * z_l      (layer field)
//   prefill score(l, t) = pref[l] + noise * eps(l, t)
//   decode pref'[l]     = sqrt(1-shift^2) * pref[l] + shift * w_l (phase shift,
//                         normalized so decode preferences keep prefill scale)
//   decode score(l, t)  = pref'[l] + drift(l, t) + noise * eps
//   drift(l, t)         = drift(l, t-1) + drift_sigma * skew * xi (random walk)
//   pred score(l, t)    = score(l, t) + pred_noise(l) * eps'      (gate-ahead
//                         prediction fidelity; layer-dependent per Fig. 5)
//
// Everything is deterministic in (spec, model dims, seed, sequence index).
//
// One trace is built in parallel over layers, byte-identical to drawing
// its stream in the serial cell order (prefill layer by layer, then decode
// token by token, layer by layer). The sequence's forked Rng yields one
// stream of normal() variates; pref and dpref take its first 2 L E on the
// caller. The rest splits into segments whose stream positions are
// closed-form: one per prefill layer, one per decode (token, layer) cell.
// A record pass walks the stream in order without computing any variate
// (Rng::skip_normal_pairs) and keeps each segment's xoshiro words at the
// Box-Muller pair boundary at or before its start (32 bytes). Each
// ThreadPool::global().parallel_for over layers then replays every segment
// of its layer (Rng::seek, dropping the cosine half when the position is
// odd), carries that layer's drift across tokens, and writes that layer's
// rows of the trace in place. Decode goes in blocks of 64 tokens, so the
// marks stay small, and one extra task of each parallel_for records the
// next block while the layers replay this one. The calling thread runs
// tasks beside the pool's workers; a caller already working for the pool
// runs the same code inline.
//
// In place. The trace's blocks are allocated and never zero-filled: each
// layer task draws its cells' scores and predictions straight into the
// blocks through SequenceTrace::LayerWriter, which ranks them into the
// stored ids, writes layer 0's empty prediction rows, and adds each cell
// to its layer's count row (whole numbers, so the same bytes as
// set_cell's updates). A NaN score throws CheckError as set_cell does.
#pragma once

#include <cstdint>

#include "data/routing_trace.hpp"
#include "data/workload.hpp"

namespace daop::data {

class TraceGenerator {
 public:
  TraceGenerator(WorkloadSpec spec, int n_layers, int n_experts, int top_k,
                 std::uint64_t seed);

  /// Generates the trace for sequence `seq_index`; deterministic per index.
  SequenceTrace generate(int seq_index) const;

  /// Generates with explicit lengths (overriding the spec's defaults).
  SequenceTrace generate(int seq_index, int prompt_len, int gen_len) const;

 private:
  WorkloadSpec spec_;
  int n_layers_;
  int n_experts_;
  int top_k_;
  std::uint64_t seed_;
};

}  // namespace daop::data
