// trace_explorer — inspects the routing statistics of a workload preset and
// the cache behaviour they induce (the paper's observations ①-③ in one
// place). Useful both as a user-facing diagnostic and for calibrating
// workload presets against published statistics.
//
// Usage: trace_explorer [dataset] [n_seqs]
//   dataset in {c4, math, gsm8k, triviaqa, alpaca, bbh, truthfulqa}
#include <cstdio>
#include <cstring>
#include <string>

#include "cache/calibration.hpp"
#include "cache/placement.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/allocation.hpp"
#include "data/trace_generator.hpp"
#include "eval/similarity.hpp"
#include "model/config.hpp"

namespace {

using namespace daop;

data::WorkloadSpec pick(const std::string& name) {
  for (const auto& w : data::all_eval_workloads()) {
    std::string lower = w.name;
    for (auto& c : lower) c = static_cast<char>(std::tolower(c));
    if (lower.find(name) != std::string::npos) return w;
  }
  std::fprintf(stderr, "unknown dataset '%s', using C4\n", name.c_str());
  return data::c4();
}

/// Decode hit rate of a placement over a trace: fraction of (token, layer,
/// selected expert) hits on the GPU.
double decode_hit_rate(const data::SequenceTrace& tr,
                       const cache::Placement& p) {
  long long hits = 0;
  long long total = 0;
  for (int l = 0; l < tr.n_layers(); ++l) {
    for (int t = 0; t < tr.gen_len; ++t) {
      for (int e : tr.selected(data::Phase::Decode, l, t)) {
        ++total;
        if (p.on_gpu(l, e)) ++hits;
      }
    }
  }
  return total > 0 ? static_cast<double>(hits) / total : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const data::WorkloadSpec spec = pick(argc > 1 ? argv[1] : "c4");
  const int n_seqs = argc > 2 ? std::atoi(argv[2]) : 64;

  const model::ModelConfig cfg = model::mixtral_8x7b();
  const data::TraceGenerator gen(spec, cfg.n_layers, cfg.n_experts, cfg.top_k,
                                 4242);

  std::printf("== workload '%s' on %s, %d sequences ==\n\n", spec.name.c_str(),
              cfg.name.c_str(), n_seqs);

  // Observation ②: prefill/decode similarity (Table II).
  std::printf("prefill/decode activation similarity (Eq. 1): %s\n",
              fmt_pct(eval::avg_prefill_decode_similarity(gen, n_seqs)).c_str());

  // Observation ③: gate-ahead prediction accuracy (Fig. 5).
  std::printf("one-layer-ahead prediction accuracy (avg):    %s\n",
              fmt_pct(eval::avg_prediction_accuracy(gen, n_seqs)).c_str());

  // §VI-B drift.
  std::printf("decode window (15-token) similarity:          %s\n\n",
              fmt_pct(eval::avg_decode_window_similarity(gen, n_seqs, 15)).c_str());

  // Cache behaviour at the paper's full-memory ECR.
  const double ecr = 0.469;
  const data::TraceGenerator calib_gen(data::sharegpt_calibration(),
                                       cfg.n_layers, cfg.n_experts, cfg.top_k,
                                       777);
  const auto calib = cache::calibrate_activation_counts(calib_gen, 32);
  const cache::Placement static_placement = cache::init_placement_calibrated(
      cfg.n_layers, cfg.n_experts, ecr, calib);

  double static_hit = 0.0;
  double daop_hit = 0.0;
  double swaps_per_layer = 0.0;
  core::SwapScratch swap_scratch(cfg.n_experts);
  for (int s = 0; s < n_seqs; ++s) {
    const auto tr = gen.generate(s);
    static_hit += decode_hit_rate(tr, static_placement);

    cache::Placement adjusted = static_placement;
    const auto counts = tr.activation_counts(data::Phase::Prefill);
    int swaps = 0;
    for (int l = 0; l < cfg.n_layers; ++l) {
      const auto decisions = core::sequence_specific_swaps(
          counts[static_cast<std::size_t>(l)], adjusted, l, 1.05,
          swap_scratch);
      core::apply_swaps(adjusted, l, decisions);
      swaps += static_cast<int>(decisions.size());
    }
    daop_hit += decode_hit_rate(tr, adjusted);
    swaps_per_layer += static_cast<double>(swaps) / cfg.n_layers;
  }
  std::printf("decode GPU hit rate @ECR %s\n", fmt_pct(ecr).c_str());
  std::printf("  calibrated static placement (Fiddler):     %s\n",
              fmt_pct(static_hit / n_seqs).c_str());
  std::printf("  after Algorithm 1 swaps (DAOP):            %s\n",
              fmt_pct(daop_hit / n_seqs).c_str());
  std::printf("  Algorithm 1 swaps per layer:               %.2f\n\n",
              swaps_per_layer / n_seqs);

  // Observation ①: dataset marginals vs per-sequence skew.
  const auto marg = eval::marginal_activation(gen, n_seqs);
  double mx = 0.0;
  double mn = 1.0;
  for (const auto& row : marg) {
    for (double p : row) {
      mx = std::max(mx, p);
      mn = std::min(mn, p);
    }
  }
  std::printf("dataset-level activation probability range: %.4f .. %.4f\n",
              mn, mx);
  std::printf("(uniform = %.4f; near-uniform marginals + skewed sequences\n"
              " = observation ①)\n",
              1.0 / cfg.n_experts);
  return 0;
}
