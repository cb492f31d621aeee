#include "data/trace_generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace daop::data {

namespace {

/// Decode tokens per record/replay block. Two blocks' cell marks are held
/// at once: at most 2 x kDecodeBlock x n_layers x 32 bytes, whatever
/// gen_len is.
constexpr int kDecodeBlock = 64;

/// Walks a normal() stream from a pair boundary without computing any
/// variate, marking where segments start.
class StreamCursor {
 public:
  explicit StreamCursor(const Rng& rng) : rng_(rng) {}

  /// The words at the pair boundary at or before normal number `pos`
  /// (counted from the cursor's start); `pos` must not decrease.
  Rng::Words mark(std::uint64_t pos) {
    rng_.skip_normal_pairs(pos / 2 - pair_);
    pair_ = pos / 2;
    return rng_.words();
  }

 private:
  Rng rng_;
  std::uint64_t pair_ = 0;
};

/// Positions `rng` on normal number `pos` from the words mark(pos) gave.
/// An odd position is a pair's cached sine half: the cosine half went to
/// the previous segment, so it is drawn and dropped.
void seek_normal(Rng& rng, const Rng::Words& mark, std::uint64_t pos) {
  rng.seek(mark);
  if (pos % 2 != 0) rng.normal();
}

}  // namespace

TraceGenerator::TraceGenerator(WorkloadSpec spec, int n_layers, int n_experts,
                               int top_k, std::uint64_t seed)
    : spec_(std::move(spec)),
      n_layers_(n_layers),
      n_experts_(n_experts),
      top_k_(top_k),
      seed_(seed) {
  DAOP_CHECK_GT(n_layers_, 0);
  DAOP_CHECK_GT(n_experts_, 0);
  DAOP_CHECK_LE(n_experts_, kMaxTraceExperts);
  DAOP_CHECK_GT(top_k_, 0);
  DAOP_CHECK_LE(top_k_, n_experts_);
  DAOP_CHECK_GE(spec_.layer_rho, 0.0);
  DAOP_CHECK_LT(spec_.layer_rho, 1.0);
}

SequenceTrace TraceGenerator::generate(int seq_index) const {
  return generate(seq_index, spec_.prompt_len, spec_.gen_len);
}

SequenceTrace TraceGenerator::generate(int seq_index, int prompt_len,
                                       int gen_len) const {
  DAOP_CHECK_GT(prompt_len, 0);
  DAOP_CHECK_GE(gen_len, 0);
  Rng rng = Rng(seed_).fork(static_cast<std::uint64_t>(seq_index));

  const auto L = static_cast<std::size_t>(n_layers_);
  const auto E = static_cast<std::size_t>(n_experts_);
  const double skew = spec_.seq_skew_sigma;
  const double rho = spec_.layer_rho;
  const double shift = spec_.phase_shift_sigma;

  // Every cell is written in place by exactly one layer task below.
  SequenceTrace tr(SequenceTrace::Unfilled{}, n_layers_, n_experts_, top_k_,
                   prompt_len, gen_len);

  // Layer-correlated sequence preference field, [layer][expert].
  std::vector<double> pref(L * E);
  for (std::size_t l = 0; l < L; ++l) {
    double* p = pref.data() + l * E;
    if (l == 0) {
      for (std::size_t e = 0; e < E; ++e) p[e] = skew * rng.normal();
    } else {
      const double* prev = p - E;
      const double fresh = std::sqrt(1.0 - rho * rho);
      for (std::size_t e = 0; e < E; ++e) {
        p[e] = rho * prev[e] + fresh * skew * rng.normal();
      }
    }
  }

  // Decode-phase preferences: correlated with prefill, scale-preserving.
  std::vector<double> dpref(L * E);
  const double keep = std::sqrt(std::max(0.0, 1.0 - shift * shift));
  for (std::size_t i = 0; i < L * E; ++i) {
    dpref[i] = keep * pref[i] + shift * skew * rng.normal();
  }

  // The rest of the stream, in the serial order: each prefill layer's
  // prompt_len x E normals, then per decode token and layer a cell of E
  // drift steps, E score noises and (above layer 0) E prediction noises.
  // The head above drew 2 L E normals, so the stream below starts on a
  // pair. Positions count normals from there.
  const auto P = static_cast<std::uint64_t>(prompt_len);
  const std::uint64_t prefill_pos = P * E;  // per layer
  const std::uint64_t decode_pos = L * P * E;
  const std::uint64_t token_normals = E * (3 * L - 1);
  const auto cell_pos = [&](int t, std::size_t l) {
    return decode_pos + static_cast<std::uint64_t>(t) * token_normals +
           (l == 0 ? 0 : E * (3 * l - 1));
  };

  // The record pass marks where each layer's segments start; a
  // parallel_for over layers replays them, each layer carrying its own
  // drift and writing its own rows of the trace's blocks in place. Step -1
  // replays the prefill and step b >= 0 decode block b. Task 0 of each step
  // records the next decode block into the other mark buffer, so the
  // serial record pass overlaps the replay.
  StreamCursor cursor(rng);
  std::vector<Rng::Words> prefill_marks(L);
  for (std::size_t l = 0; l < L; ++l) {
    prefill_marks[l] = cursor.mark(l * prefill_pos);
  }
  const int n_blocks = (gen_len + kDecodeBlock - 1) / kDecodeBlock;
  std::array<std::vector<Rng::Words>, 2> cell_marks;  // [token - t0][layer]
  for (auto& marks : cell_marks) {
    marks.reserve(static_cast<std::size_t>(std::min(gen_len, kDecodeBlock)) *
                  L);
  }
  const auto record = [&](int block) {
    const int t0 = block * kDecodeBlock;
    const int t1 = std::min(gen_len, t0 + kDecodeBlock);
    auto& marks = cell_marks[static_cast<std::size_t>(block % 2)];
    marks.resize(static_cast<std::size_t>(t1 - t0) * L);
    for (int t = t0; t < t1; ++t) {
      for (std::size_t l = 0; l < L; ++l) {
        marks[static_cast<std::size_t>(t - t0) * L + l] =
            cursor.mark(cell_pos(t, l));
      }
    }
  };

  std::vector<double> drift(L * E, 0.0);
  int step = -1;
  // Built once, so the per-step parallel_for calls allocate nothing.
  const std::function<void(std::int64_t)> run_task = [&](std::int64_t task) {
    if (task == 0) {
      if (step + 1 < n_blocks) record(step + 1);
      return;
    }
    const auto l = static_cast<std::size_t>(task - 1);
    const int li = static_cast<int>(l);
    Rng r = rng;

    if (step < 0) {  // prefill tokens
      SequenceTrace::LayerWriter out(tr, Phase::Prefill, li);
      seek_normal(r, prefill_marks[l], l * prefill_pos);
      const double* p = pref.data() + l * E;
      for (int t = 0; t < prompt_len; ++t) {
        float* scores = out.scores(t);
        for (std::size_t e = 0; e < E; ++e) {
          scores[e] = static_cast<float>(
              p[e] + spec_.token_noise_sigma * r.normal());
        }
        out.commit(t, /*with_pred=*/false);
      }
      return;
    }

    // Decode tokens with random-walk drift and gate-ahead predictions.
    SequenceTrace::LayerWriter out(tr, Phase::Decode, li);
    const auto& marks = cell_marks[static_cast<std::size_t>(step % 2)];
    const int t0 = step * kDecodeBlock;
    const int t1 = std::min(gen_len, t0 + kDecodeBlock);
    const double* dp = dpref.data() + l * E;
    double* d = drift.data() + l * E;
    for (int t = t0; t < t1; ++t) {
      seek_normal(r, marks[static_cast<std::size_t>(t - t0) * L + l],
                  cell_pos(t, l));
      for (std::size_t e = 0; e < E; ++e) {
        d[e] = spec_.drift_rho * d[e] + spec_.drift_sigma * skew * r.normal();
      }
      float* scores = out.scores(t);
      for (std::size_t e = 0; e < E; ++e) {
        scores[e] = static_cast<float>(
            dp[e] + d[e] + spec_.token_noise_sigma * r.normal());
      }
      if (l == 0) {
        out.commit(t, /*with_pred=*/false);
        continue;
      }
      // A prediction for this layer, formed while layer l-1 executed.
      const double pn = l < 4 ? spec_.pred_noise_early : spec_.pred_noise_late;
      float* pred = out.pred_scores(t);
      for (std::size_t e = 0; e < E; ++e) {
        pred[e] = scores[e] + static_cast<float>(pn * r.normal());
      }
      out.commit(t, /*with_pred=*/true);
    }
  };
  for (; step < n_blocks; ++step) {
    ThreadPool::global().parallel_for(n_layers_ + 1, run_task);
  }
  return tr;
}

}  // namespace daop::data
