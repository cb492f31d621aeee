// Extension bench: batched decoding. The paper fixes batch size 1 (§V-A);
// serving stacks batch. Two opposing effects on the hybrid engines:
// amortized weight reads push aggregate throughput up (much faster on the
// GPU than on the bandwidth-bound CPU), while the single shared expert
// cache dilutes DAOP's per-sequence allocation advantage.
#include <cstdio>

#include "cache/calibration.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/daop_batch.hpp"
#include "data/trace_generator.hpp"
#include "engines/batch.hpp"
#include "model/config.hpp"
#include "model/op_costs.hpp"

int main() {
  using namespace daop;

  const model::ModelConfig cfg = model::mixtral_8x7b();
  const sim::CostModel cm(sim::a6000_i9_platform());
  const model::OpCosts costs(cfg, cm);

  const data::TraceGenerator calib_gen(data::sharegpt_calibration(),
                                       cfg.n_layers, cfg.n_experts, cfg.top_k,
                                       0xCA11Bu);
  const auto calib = cache::calibrate_activation_counts(calib_gen, 32);
  const auto placement = cache::init_placement_calibrated(
      cfg.n_layers, cfg.n_experts, 0.469, calib);

  const data::TraceGenerator gen(data::c4(), cfg.n_layers, cfg.n_experts,
                                 cfg.top_k, 7);

  std::printf(
      "Batched decoding (extension) — %s, ECR 46.9%%, in/out 256,\n"
      "A6000 + i9. Aggregate = batch tokens/s; per-seq = one user's rate.\n\n",
      cfg.name.c_str());

  TextTable t({"batch", "Fiddler agg", "Fiddler/seq", "DAOP agg", "DAOP/seq",
               "DAOP edge"});
  for (int b : {1, 2, 4, 8, 16}) {
    std::vector<data::SequenceTrace> traces;
    for (int i = 0; i < b; ++i) traces.push_back(gen.generate(i, 256, 256));
    const auto rf = engines::run_fiddler_batch(costs, traces, placement);
    const auto rd =
        core::run_daop_batch(costs, core::DaopConfig{}, traces, placement);
    const double edge = rd.tokens_per_s / rf.tokens_per_s - 1.0;
    t.add_row({std::to_string(b), fmt_f(rf.tokens_per_s, 2),
               fmt_f(rf.per_seq_tokens_per_s, 2), fmt_f(rd.tokens_per_s, 2),
               fmt_f(rd.per_seq_tokens_per_s, 2),
               (edge >= 0 ? "+" : "") + fmt_pct(edge)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "shape: aggregate throughput grows with batch (weight reads\n"
      "amortize); per-user rate declines; DAOP's edge over Fiddler narrows\n"
      "and eventually inverts as one shared cache must serve the union of\n"
      "the batch's activation patterns and speculative CPU work stops\n"
      "amortizing — the paper's mechanisms are batch-1 (real-time)\n"
      "optimizations, exactly the setting it targets.\n");
  return 0;
}
