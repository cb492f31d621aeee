// Reproduces paper Fig. 8: decode-stage execution timelines of
// MoE-OnDemand, Pre-gated MoE, Fiddler and DAOP over two consecutive
// transformer blocks — experts A,B activated in the first block and C,D in
// the second, with A,B,C initially GPU-cached.
//
// The paper's qualitative picture: fetch-based engines serialize block
// compute behind ~40 ms expert migrations; Fiddler avoids migration but
// serializes CPU expert execution inside the layer; DAOP pre-calculates the
// CPU expert one layer early so CPU and GPU overlap.
//
// The critical-path profiler turns that picture into numbers: each case
// prints its attribution report, and the bench *asserts* the mechanism —
// DAOP's exposed (critical-path) CPU-expert time in the decode phase must be
// strictly below Fiddler's on the same trace, because pre-calculation hides
// the CPU expert behind GPU work that Fiddler serializes after. Exits
// non-zero when the claim does not hold.
#include <cstdio>
#include <span>
#include <vector>

#include "cache/placement.hpp"
#include "common/strings.hpp"
#include "core/daop_engine.hpp"
#include "data/routing_trace.hpp"
#include "engines/fetch_engine.hpp"
#include "engines/fiddler.hpp"
#include "eval/speed.hpp"
#include "model/config.hpp"
#include "model/op_costs.hpp"
#include "obs/attribution.hpp"
#include "obs/profiler.hpp"

namespace {

using namespace daop;

// Builds a two-block micro-trace: block 0 activates {A=0, B=1}, block 1
// activates {C=2, D=3}; predictions are perfect. A short one-token prompt
// keeps prefill out of the interesting window.
data::SequenceTrace micro_trace(const model::ModelConfig& cfg) {
  data::SequenceTrace tr(cfg.n_layers, cfg.n_experts, cfg.top_k,
                         /*prompt_len=*/1, /*gen_len=*/1);
  for (int l = 0; l < cfg.n_layers; ++l) {
    std::vector<float> scores(static_cast<std::size_t>(cfg.n_experts), 0.0F);
    if (l % 2 == 0) {
      scores[0] = 2.0F;  // A
      scores[1] = 1.5F;  // B
    } else {
      scores[2] = 2.0F;  // C
      scores[3] = 1.5F;  // D
    }
    // Perfect prediction from layer 1 on.
    tr.set_cell(data::Phase::Decode, l, 0, scores,
                l >= 1 ? std::span<const float>(scores)
                       : std::span<const float>());
    // Prefill routes like decode so the figure's initial cache state
    // (A, B, C resident) survives the prefill phase for every engine.
    tr.set_cell(data::Phase::Prefill, l, 0, scores);
  }
  return tr;
}

}  // namespace

int main() {
  // Two-block model so the whole decode step fits one gantt window.
  model::ModelConfig cfg = model::mixtral_8x7b();
  cfg.n_layers = 2;

  const sim::CostModel cm(sim::a6000_i9_platform());
  const model::OpCosts costs(cfg, cm);

  // Initial cache: A, B, C on GPU; D on CPU (per the figure's setup).
  cache::Placement placement(cfg.n_layers, cfg.n_experts);
  placement.set_capacity(0, 2);
  placement.move_to_gpu(0, 0);  // A
  placement.move_to_gpu(0, 1);  // B
  placement.set_capacity(1, 1);
  placement.move_to_gpu(1, 2);  // C  (D = expert 3 stays on CPU)

  const data::SequenceTrace tr = micro_trace(cfg);

  std::printf(
      "Fig. 8 — decode timeline, two blocks; block0 -> experts A,B (cached),\n"
      "block1 -> experts C (cached), D (on CPU)\n\n");

  struct Case {
    const char* label;
    std::unique_ptr<engines::Engine> engine;
  };
  std::vector<Case> cases;
  cases.push_back({"MoE-OnDemand", engines::make_moe_ondemand(costs)});
  cases.push_back({"Pre-gated MoE", engines::make_pregated_moe(costs)});
  cases.push_back({"Fiddler", engines::make_fiddler(costs)});
  core::DaopConfig dc;
  dc.min_predict_layer = 1;  // the figure's two-block excerpt predicts from block 0
  dc.enable_seq_allocation = false;  // isolate the decode-phase mechanism
  cases.push_back({"DAOP", core::make_daop(costs, dc)});

  double fiddler_cpu_exposed_ms = -1.0;
  double daop_cpu_exposed_ms = -1.0;
  for (auto& c : cases) {
    obs::Profiler prof;
    c.engine->set_profiler(&prof);
    sim::Timeline tl;
    tl.set_record_intervals(true);
    const auto r = c.engine->run(tr, placement, &tl);
    std::printf("---- %s ----\n", c.label);
    std::printf("decode step time: %s ms\n",
                daop::fmt_f(r.decode_s * 1e3, 2).c_str());
    std::printf("%s\n",
                sim::render_gantt(tl, r.prefill_s, r.total_s, 90).c_str());
    // Critical-path attribution of the same run: where the decode step's
    // wall time actually went, and how much work each engine hid.
    std::printf("%s\n", prof.to_text().c_str());
    if (!prof.runs().empty()) {
      const obs::AttrBreakdown& dec = prof.runs().front().decode;
      const double cpu_exposed_ms =
          dec.exposed(obs::AttrCategory::CpuExpert) * 1e3;
      if (std::string(c.label) == "Fiddler") {
        fiddler_cpu_exposed_ms = cpu_exposed_ms;
      } else if (std::string(c.label) == "DAOP") {
        daop_cpu_exposed_ms = cpu_exposed_ms;
      }
    }
  }

  std::printf("exposed CPU-expert time in decode: Fiddler %s ms, DAOP %s ms\n",
              daop::fmt_f(fiddler_cpu_exposed_ms, 3).c_str(),
              daop::fmt_f(daop_cpu_exposed_ms, 3).c_str());
  if (fiddler_cpu_exposed_ms < 0.0 || daop_cpu_exposed_ms < 0.0) {
    std::fprintf(stderr,
                 "FAIL: attribution profiles missing for Fiddler or DAOP\n");
    return 1;
  }
  if (daop_cpu_exposed_ms >= fiddler_cpu_exposed_ms) {
    std::fprintf(stderr,
                 "FAIL: DAOP's exposed CPU-expert decode time (%.4f ms) is "
                 "not below Fiddler's (%.4f ms) — pre-calculation did not "
                 "hide the CPU expert\n",
                 daop_cpu_exposed_ms, fiddler_cpu_exposed_ms);
    return 1;
  }
  std::printf(
      "OK: DAOP hides the CPU expert behind GPU compute (Fig. 8 mechanism)\n");
  return 0;
}
