#include "data/trace_generator.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace daop::data {

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

  const auto E = static_cast<std::size_t>(n_experts_);
  const double skew = spec_.seq_skew_sigma;
  const double rho = spec_.layer_rho;
  const double shift = spec_.phase_shift_sigma;

  SequenceTrace tr(n_layers_, n_experts_, top_k_, prompt_len, gen_len);
  // One cell's scores and prediction, staged as floats for set_cell.
  std::vector<float> scores(E);
  std::vector<float> pred(E);

  // Layer-correlated sequence preference field.
  std::vector<std::vector<double>> pref(static_cast<std::size_t>(n_layers_),
                                        std::vector<double>(E));
  for (int l = 0; l < n_layers_; ++l) {
    auto& p = pref[static_cast<std::size_t>(l)];
    if (l == 0) {
      for (auto& v : p) v = skew * rng.normal();
    } else {
      const auto& prev = pref[static_cast<std::size_t>(l - 1)];
      const double fresh = std::sqrt(1.0 - rho * rho);
      for (std::size_t e = 0; e < E; ++e) {
        p[e] = rho * prev[e] + fresh * skew * rng.normal();
      }
    }
  }

  // Decode-phase preferences: correlated with prefill, scale-preserving.
  std::vector<std::vector<double>> dpref(static_cast<std::size_t>(n_layers_),
                                         std::vector<double>(E));
  const double keep = std::sqrt(std::max(0.0, 1.0 - shift * shift));
  for (int l = 0; l < n_layers_; ++l) {
    for (std::size_t e = 0; e < E; ++e) {
      dpref[static_cast<std::size_t>(l)][e] =
          keep * pref[static_cast<std::size_t>(l)][e] +
          shift * skew * rng.normal();
    }
  }

  // Prefill tokens.
  for (int l = 0; l < n_layers_; ++l) {
    for (int t = 0; t < prompt_len; ++t) {
      for (std::size_t e = 0; e < E; ++e) {
        scores[e] = static_cast<float>(
            pref[static_cast<std::size_t>(l)][e] +
            spec_.token_noise_sigma * rng.normal());
      }
      tr.set_cell(Phase::Prefill, l, t, scores);
    }
  }

  // Decode tokens with random-walk drift and gate-ahead predictions.
  std::vector<std::vector<double>> drift(static_cast<std::size_t>(n_layers_),
                                         std::vector<double>(E, 0.0));
  for (int t = 0; t < gen_len; ++t) {
    for (int l = 0; l < n_layers_; ++l) {
      auto& d = drift[static_cast<std::size_t>(l)];
      for (std::size_t e = 0; e < E; ++e) {
        d[e] = spec_.drift_rho * d[e] + spec_.drift_sigma * skew * rng.normal();
      }
      for (std::size_t e = 0; e < E; ++e) {
        scores[e] = static_cast<float>(
            dpref[static_cast<std::size_t>(l)][e] + d[e] +
            spec_.token_noise_sigma * rng.normal());
      }
      if (l == 0) {
        tr.set_cell(Phase::Decode, l, t, scores);
        continue;
      }
      // A prediction for this layer, formed while layer l-1 executed.
      const double pn = l < 4 ? spec_.pred_noise_early : spec_.pred_noise_late;
      for (std::size_t e = 0; e < E; ++e) {
        pred[e] = scores[e] + static_cast<float>(pn * rng.normal());
      }
      tr.set_cell(Phase::Decode, l, t, scores, pred);
    }
  }
  return tr;
}

}  // namespace daop::data
