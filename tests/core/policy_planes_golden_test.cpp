// Golden lockdown of the DAOP decode policy on all three planes that run it:
//  (a) DaopEngine (timing plane) under every policy branch, in the
//      session_runs.golden snapshot format (times, energy, counters and the
//      Chrome-trace hash);
//  (b) DaopFunctionalExecutor (functional plane): generated tokens and every
//      FunctionalRunStats field on tiny_mixtral across ECR;
//  (c) run_daop_batch (batch plane) at B = 1 and 3.
// Each policy variant must also exercise its own branch (its distinguishing
// counter is non-zero somewhere in the grid), so a variant that silently
// stops reaching its code path fails here even if the bytes still match.
//
// Regenerate (only after an INTENTIONAL policy change) with:
//   DAOP_UPDATE_GOLDENS=1 ./policy_planes_golden_test
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "../testing/golden.hpp"
#include "../testing/helpers.hpp"
#include "cache/calibration.hpp"
#include "core/daop_batch.hpp"
#include "core/daop_engine.hpp"
#include "core/daop_executor.hpp"
#include "data/gate_bias.hpp"
#include "data/trace_generator.hpp"
#include "eval/accuracy.hpp"
#include "obs/span_tracer.hpp"
#include "sim/trace_export.hpp"

#ifndef DAOP_GOLDEN_DIR
#error "DAOP_GOLDEN_DIR must be defined by the build"
#endif

namespace daop::core {
namespace {

using daop::testing::fnv1a_hex;
using daop::testing::hexf;

struct Variant {
  const char* name;
  DaopConfig config;
};

/// Every policy branch, each on top of prediction from layer 1 (the test
/// models are too shallow for the paper's min_predict_layer).
std::vector<Variant> variants(bool with_stale) {
  DaopConfig base;
  base.min_predict_layer = 1;
  std::vector<Variant> v = {{"default", base}};
  DaopConfig c = base;
  c.mispredict_policy = MispredictPolicy::GracefulFallback;
  v.push_back({"graceful-fallback", c});
  c = base;
  c.enable_degradation = false;
  v.push_back({"no-degradation", c});
  c = base;
  c.skip_top1_margin = 0.7;
  v.push_back({"skip-0.7", c});
  c = base;
  c.decode_realloc_interval = 4;
  v.push_back({"realloc-4", c});
  if (with_stale) {
    c = base;
    c.stale_precalc_factor = 0.5;
    v.push_back({"stale-0.5", c});
  }
  return v;
}

const std::vector<data::WorkloadSpec>& workloads() {
  static const std::vector<data::WorkloadSpec> w = {data::c4(),
                                                    data::gsm8k()};
  return w;
}

/// Counters summed over one variant's grid, for the branch-reached checks.
struct Reached {
  long long degradations = 0;
  long long fallbacks = 0;   ///< executor mispredict_fallbacks
  long long skipped = 0;
  long long decode_swaps = 0;
  long long stale = 0;
};

// ---- (a) timing plane ----

std::string engine_snapshot(const Variant& v, const data::WorkloadSpec& wl,
                            std::uint64_t seed, Reached& reached) {
  const model::ModelConfig cfg = daop::testing::small_mixtral();
  const sim::CostModel cm(sim::a6000_i9_platform());
  const model::OpCosts costs(cfg, cm);
  const data::TraceGenerator gen(wl, cfg.n_layers, cfg.n_experts, cfg.top_k,
                                 seed);
  const auto trace = gen.generate(0, 24, 12);
  const data::TraceGenerator calib(data::sharegpt_calibration(), cfg.n_layers,
                                   cfg.n_experts, cfg.top_k, seed ^ 0xCA11Bu);
  const auto placement = cache::init_placement_calibrated(
      cfg.n_layers, cfg.n_experts, 0.469,
      cache::calibrate_activation_counts(calib, 6));

  DaopEngine engine(costs, v.config);
  obs::SpanTracer tracer;
  engine.set_tracer(&tracer);
  sim::Timeline tl;
  tl.set_record_intervals(true);
  const engines::RunResult r = engine.run(trace, placement, &tl);
  const std::string json = sim::to_chrome_trace_json(tl, &tracer);

  const engines::EngineCounters& c = r.counters;
  reached.degradations += c.degradations;
  reached.skipped += c.skipped_experts;
  reached.decode_swaps += c.decode_swaps;
  reached.stale += c.stale_precalcs;

  std::ostringstream os;
  os << "[engine " << v.name << " | " << wl.name << " | seed " << seed
     << "]\n";
  os << "tokens=" << r.prompt_tokens << "+" << r.generated_tokens << "\n";
  os << "prefill_s=" << hexf(r.prefill_s) << "\n";
  os << "decode_s=" << hexf(r.decode_s) << "\n";
  os << "total_s=" << hexf(r.total_s) << "\n";
  os << "tokens_per_s=" << hexf(r.tokens_per_s) << "\n";
  os << "decode_tokens_per_s=" << hexf(r.decode_tokens_per_s) << "\n";
  os << "energy=" << hexf(r.energy.gpu_j) << " " << hexf(r.energy.cpu_j)
     << " " << hexf(r.energy.pcie_j) << " " << hexf(r.energy.base_j) << " "
     << hexf(r.energy.total_j) << " " << hexf(r.energy.avg_power_w) << "\n";
  os << "tokens_per_kj=" << hexf(r.tokens_per_kj) << "\n";
  os << "counters=" << c.expert_migrations << "," << c.gpu_expert_execs << ","
     << c.cpu_expert_execs << "," << c.cache_hits << "," << c.cache_misses
     << "," << c.prefetch_hits << "," << c.predictions << ","
     << c.mispredictions << "," << c.degradations << "," << c.prefill_swaps
     << "," << c.decode_swaps << "," << c.skipped_experts << ","
     << c.migration_retries << "," << c.migration_aborts << ","
     << c.stale_precalcs << "," << hexf(c.hazard_stall_s) << "\n";
  os << "chrome_trace_fnv1a=" << fnv1a_hex(json) << "\n\n";
  return os.str();
}

// ---- (b) functional plane ----

constexpr int kPromptLen = 12;
constexpr int kGenLen = 16;
constexpr int kSeqs = 2;
constexpr std::uint64_t kSeed = 21;

std::string executor_snapshot(const model::FunctionalModel& model,
                              const Variant& v, const data::WorkloadSpec& wl,
                              double ecr, const cache::Placement& placement,
                              Reached& reached) {
  const model::ModelConfig& cfg = model.config();
  const DaopFunctionalExecutor exec(model, v.config);
  std::ostringstream os;
  for (int s = 0; s < kSeqs; ++s) {
    const auto prompt = data::make_prompt(cfg.vocab_size, kPromptLen, kSeed, s);
    const auto bias =
        data::make_gate_bias(wl, cfg.n_layers, cfg.n_experts, kSeed, s,
                             kPromptLen, kPromptLen + kGenLen + 1);
    FunctionalRunStats st;
    const std::vector<int> out =
        exec.generate(prompt, kGenLen, placement, bias, &st);
    reached.degradations += st.degradations;
    reached.fallbacks += st.mispredict_fallbacks;
    reached.skipped += st.skipped_experts;
    reached.decode_swaps += st.decode_swaps;

    os << "[executor " << v.name << " | " << wl.name << " | ecr " << ecr
       << " | seq " << s << "]\n";
    os << "tokens=";
    for (std::size_t i = 0; i < out.size(); ++i) {
      os << (i ? "," : "") << out[i];
    }
    os << "\n";
    os << "stats=" << st.decode_expert_uses << "," << st.exact_execs << ","
       << st.stale_input_execs << "," << st.degradations << ","
       << st.mispredict_fallbacks << "," << st.mispredict_recomputes << ","
       << st.prefill_swaps << "," << st.decode_swaps << ","
       << st.quantized_execs << "," << st.skipped_experts << "\n\n";
  }
  return os.str();
}

// ---- (c) batch plane ----

std::string batch_snapshot(const char* name, const DaopConfig& config,
                           const data::WorkloadSpec& wl, int batch) {
  const model::ModelConfig cfg = daop::testing::small_mixtral();
  const sim::CostModel cm(sim::a6000_i9_platform());
  const model::OpCosts costs(cfg, cm);
  const data::TraceGenerator gen(wl, cfg.n_layers, cfg.n_experts, cfg.top_k,
                                 47);
  std::vector<data::SequenceTrace> traces;
  for (int i = 0; i < batch; ++i) traces.push_back(gen.generate(i, 24, 12));
  const data::TraceGenerator calib(data::sharegpt_calibration(), cfg.n_layers,
                                   cfg.n_experts, cfg.top_k, 13);
  const auto placement = cache::init_placement_calibrated(
      cfg.n_layers, cfg.n_experts, 0.469,
      cache::calibrate_activation_counts(calib, 6));
  const engines::BatchResult r =
      run_daop_batch(costs, config, traces, placement);
  const engines::EngineCounters& c = r.counters;

  std::ostringstream os;
  os << "[batch " << name << " | " << wl.name << " | B " << batch << "]\n";
  os << "engine=" << r.engine << " tokens=" << r.tokens_generated << "\n";
  os << "prefill_s=" << hexf(r.prefill_s) << "\n";
  os << "total_s=" << hexf(r.total_s) << "\n";
  os << "tokens_per_s=" << hexf(r.tokens_per_s) << " "
     << hexf(r.per_seq_tokens_per_s) << "\n";
  os << "energy=" << hexf(r.energy.total_j) << " "
     << hexf(r.energy.avg_power_w) << "\n";
  os << "tokens_per_kj=" << hexf(r.tokens_per_kj) << "\n";
  os << "counters=" << c.expert_migrations << "," << c.gpu_expert_execs << ","
     << c.cpu_expert_execs << "," << c.cache_hits << "," << c.cache_misses
     << "," << c.predictions << "," << c.mispredictions << ","
     << c.degradations << "," << c.prefill_swaps << "," << c.skipped_experts
     << "\n\n";
  return os.str();
}

/// The variant's distinguishing counter is non-zero over its grid (zero
/// for no-degradation). `fallbacks` is the plane's count of mispredict
/// fallbacks; the engine folds them into degradations, so there it is the
/// variant's degradations beyond the default's.
void expect_branch_reached(const std::string& name, const Reached& r,
                           long long fallbacks) {
  SCOPED_TRACE(name);
  if (name == "no-degradation") {
    EXPECT_EQ(r.degradations, 0);
  } else if (name == "graceful-fallback") {
    EXPECT_GT(fallbacks, 0);
  } else if (name == "skip-0.7") {
    EXPECT_GT(r.skipped, 0);
  } else if (name == "realloc-4") {
    EXPECT_GT(r.decode_swaps, 0);
  } else if (name == "stale-0.5") {
    EXPECT_GT(r.stale, 0);
  } else {
    EXPECT_GT(r.degradations, 0);
  }
}

std::string all_snapshots() {
  std::string out;
  const std::uint64_t seeds[] = {7, 23, 123};
  long long default_degradations = 0;
  for (const Variant& v : variants(/*with_stale=*/true)) {
    Reached reached;
    for (const auto& wl : workloads()) {
      for (const auto seed : seeds) {
        out += engine_snapshot(v, wl, seed, reached);
      }
    }
    if (std::string(v.name) == "default") {
      default_degradations = reached.degradations;
    }
    expect_branch_reached(v.name, reached,
                          reached.degradations - default_degradations);
  }

  const model::FunctionalModel model(model::tiny_mixtral(), 7);
  const model::ModelConfig& cfg = model.config();
  const auto calib = eval::calibrate_functional_counts(
      model, data::sharegpt_calibration(), 4, 12, 12, 99);
  for (const Variant& v : variants(/*with_stale=*/false)) {
    Reached reached;
    for (const auto& wl : workloads()) {
      for (const double ecr : {0.25, 0.469, 0.625}) {
        const auto placement = cache::init_placement_calibrated(
            cfg.n_layers, cfg.n_experts, ecr, calib);
        out += executor_snapshot(model, v, wl, ecr, placement, reached);
      }
    }
    expect_branch_reached(v.name, reached, reached.fallbacks);
  }

  DaopConfig predict_from_1;
  predict_from_1.min_predict_layer = 1;
  for (const auto& wl : workloads()) {
    for (const int b : {1, 3}) {
      out += batch_snapshot("default", DaopConfig{}, wl, b);
      out += batch_snapshot("min-predict-1", predict_from_1, wl, b);
    }
  }
  return out;
}

const char* kGoldenPath = DAOP_GOLDEN_DIR "/policy_planes.golden";

TEST(PolicyPlanesGolden, MatchesCommittedSnapshot) {
  daop::testing::expect_matches_golden(kGoldenPath, all_snapshots());
}

}  // namespace
}  // namespace daop::core
