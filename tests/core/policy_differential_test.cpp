// Differential test across the three planes that run DAOP's decode policy.
//
// The functional executor records the routing it actually took (biased gate
// logits and gate-ahead logits) into a SequenceTrace; replaying that trace
// through DaopEngine on the same initial placement must make the same
// per-expert decisions. The engine's decisions are read back from its span
// tracer, walking the spans in order:
//   "gate L<l>"            starts decode layer l; the layer has an active
//                          pre-calc plan iff "predict L<l>" was emitted
//                          since the previous gate
//   "GPU expert"           GpuHit
//   "CPU expert"           Recompute under an active plan, InPlaceCpu
//                          otherwise
//   "pre-calc commit E<e>" PrecalcCommit
//   "pre-calc discard E<e>" StaleDiscard (never here: no clock in the
//                          functional plane, so stale_precalc_factor is 0)
//   "substitute expert"    Substitute
//   "fallback expert"      Fallback
// Mapped onto FunctionalRunStats:
//   exact_execs           = GpuHit + InPlaceCpu (true expert, exact input)
//   stale_input_execs     = PrecalcCommit
//   degradations          = Substitute
//   mispredict_fallbacks  = Fallback
//   mispredict_recomputes = Recompute
// The batch plane at B = 1 must then agree with the engine on the counters
// both define the same way (not on execution counts: batch fuses a
// substitute that coincides with a selected GPU expert into one execution).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cache/calibration.hpp"
#include "core/daop_batch.hpp"
#include "core/daop_engine.hpp"
#include "core/daop_executor.hpp"
#include "data/gate_bias.hpp"
#include "data/routing_trace.hpp"
#include "eval/accuracy.hpp"
#include "obs/span_tracer.hpp"

namespace daop::core {
namespace {

struct ActionTotals {
  long long gpu_hits = 0;
  long long in_place = 0;
  long long commits = 0;
  long long stale_discards = 0;
  long long substitutes = 0;
  long long fallbacks = 0;
  long long recomputes = 0;
};

ActionTotals decode_actions(const obs::SpanTracer& tracer) {
  ActionTotals a;
  bool decoding = false;
  bool predicted = false;  // "predict L<l>" seen since the last gate
  bool active = false;     // the current layer has a pre-calc plan
  for (const obs::TraceSpan& s : tracer.spans()) {
    const std::string_view n = s.name;
    if (n.starts_with("gate L")) {
      decoding = true;
      active = predicted;
      predicted = false;
    } else if (!decoding) {
      continue;  // prefill
    } else if (n.starts_with("predict L")) {
      predicted = true;
    } else if (n == "GPU expert") {
      ++a.gpu_hits;
    } else if (n == "CPU expert") {
      ++(active ? a.recomputes : a.in_place);
    } else if (n.starts_with("pre-calc commit")) {
      ++a.commits;
    } else if (n.starts_with("pre-calc discard")) {
      ++a.stale_discards;
    } else if (n == "substitute expert") {
      ++a.substitutes;
    } else if (n == "fallback expert") {
      ++a.fallbacks;
    }
  }
  return a;
}

struct Variant {
  const char* name;
  DaopConfig config;
};

std::vector<Variant> variants() {
  std::vector<Variant> v = {{"default", DaopConfig{}}};
  DaopConfig c;
  c.mispredict_policy = MispredictPolicy::GracefulFallback;
  v.push_back({"graceful-fallback", c});
  c = DaopConfig{};
  c.skip_top1_margin = 0.7;
  v.push_back({"skip-0.7", c});
  return v;
}

constexpr int kPromptLen = 12;
constexpr int kGenLen = 16;

TEST(PolicyDifferential, FunctionalTimingAndBatchPlanesAgree) {
  const model::FunctionalModel model(model::tiny_mixtral(), 7);
  const model::ModelConfig& cfg = model.config();
  const sim::CostModel cm(sim::a6000_i9_platform());
  const model::OpCosts costs(cfg, cm);
  const auto calib = eval::calibrate_functional_counts(
      model, data::sharegpt_calibration(), 4, 12, 12, 99);

  ActionTotals grid;  // summed, to check the grid reaches every branch
  for (const Variant& v : variants()) {
    const DaopFunctionalExecutor exec(model, v.config);
    DaopEngine engine(costs, v.config);
    for (const auto& wl : {data::c4(), data::gsm8k()}) {
      for (const double ecr : {0.25, 0.469, 0.625}) {
        const cache::Placement placement = cache::init_placement_calibrated(
            cfg.n_layers, cfg.n_experts, ecr, calib);
        for (const std::uint64_t seed : {5, 6, 7}) {
          SCOPED_TRACE(std::string(v.name) + " | " + wl.name + " | ecr " +
                       std::to_string(ecr) + " | seed " +
                       std::to_string(seed));
          const auto prompt =
              data::make_prompt(cfg.vocab_size, kPromptLen, seed, 0);
          const auto bias =
              data::make_gate_bias(wl, cfg.n_layers, cfg.n_experts, seed, 0,
                                   kPromptLen, kPromptLen + kGenLen + 1);
          FunctionalRunStats st;
          data::SequenceTrace trace;
          (void)exec.generate(prompt, kGenLen, placement, bias, &st, {},
                              &trace);
          ASSERT_EQ(trace.gen_len, kGenLen - 1);

          obs::SpanTracer tracer;
          engine.set_tracer(&tracer);
          const engines::RunResult r = engine.run(trace, placement);
          engine.set_tracer(nullptr);
          const engines::EngineCounters& c = r.counters;
          EXPECT_EQ(c.prefill_swaps, st.prefill_swaps);
          EXPECT_EQ(c.decode_swaps, st.decode_swaps);
          EXPECT_EQ(c.skipped_experts, st.skipped_experts);

          const ActionTotals a = decode_actions(tracer);
          EXPECT_EQ(a.gpu_hits + a.in_place, st.exact_execs);
          EXPECT_EQ(a.commits, st.stale_input_execs);
          EXPECT_EQ(a.stale_discards, 0);
          EXPECT_EQ(a.substitutes, st.degradations);
          EXPECT_EQ(a.fallbacks, st.mispredict_fallbacks);
          EXPECT_EQ(a.recomputes, st.mispredict_recomputes);
          grid.gpu_hits += a.gpu_hits;
          grid.in_place += a.in_place;
          grid.commits += a.commits;
          grid.substitutes += a.substitutes;
          grid.fallbacks += a.fallbacks;
          grid.recomputes += a.recomputes;

          const engines::BatchResult b = run_daop_batch(
              costs, v.config, std::span(&trace, 1), placement);
          EXPECT_EQ(b.counters.predictions, c.predictions);
          EXPECT_EQ(b.counters.mispredictions, c.mispredictions);
          EXPECT_EQ(b.counters.degradations, c.degradations);
          EXPECT_EQ(b.counters.prefill_swaps, c.prefill_swaps);
          EXPECT_EQ(b.counters.cache_hits, c.cache_hits);
          EXPECT_EQ(b.counters.cache_misses, c.cache_misses);
        }
      }
    }
  }
  EXPECT_GT(grid.gpu_hits, 0);
  EXPECT_GT(grid.in_place, 0);
  EXPECT_GT(grid.commits, 0);
  EXPECT_GT(grid.substitutes, 0);
  EXPECT_GT(grid.fallbacks, 0);
  EXPECT_GT(grid.recomputes, 0);
}

}  // namespace
}  // namespace daop::core
