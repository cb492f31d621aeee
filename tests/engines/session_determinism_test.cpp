// Single-sequence determinism regression for the session refactor: every
// engine driven through Engine::run() must produce bit-identical RunResults
// (times, energy, all counters) and byte-identical Chrome-trace exports
// versus the committed golden snapshots, which were captured from the
// pre-session monolithic run() loops. Any scheduling-order change — however
// plausible-looking — fails this test.
//
// Regenerate (only after an INTENTIONAL scheduling/tracing change) with:
//   DAOP_UPDATE_GOLDENS=1 ./session_determinism_test
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "../testing/golden.hpp"
#include "../testing/helpers.hpp"
#include "cache/calibration.hpp"
#include "data/trace_generator.hpp"
#include "eval/speed.hpp"
#include "obs/span_tracer.hpp"
#include "sim/trace_export.hpp"

#ifndef DAOP_GOLDEN_DIR
#error "DAOP_GOLDEN_DIR must be defined by the build"
#endif

namespace daop::engines {
namespace {

using daop::testing::fnv1a_hex;
using daop::testing::hexf;

std::string run_snapshot(eval::EngineKind kind, const data::WorkloadSpec& wl,
                         std::uint64_t seed) {
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

  // small_mixtral has 4 layers; lower min_predict_layer so DAOP's
  // prediction/pre-calc path is actually exercised by the snapshot.
  core::DaopConfig dcfg;
  dcfg.min_predict_layer = 1;
  auto engine = eval::make_engine(kind, costs, dcfg);
  obs::SpanTracer tracer;
  engine->set_tracer(&tracer);
  sim::Timeline tl;
  tl.set_record_intervals(true);
  const RunResult r = engine->run(trace, placement, &tl);
  const std::string json = sim::to_chrome_trace_json(tl, &tracer);

  std::ostringstream os;
  os << "[" << engine_kind_name(kind) << " | " << wl.name << " | seed "
     << seed << "]\n";
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
  const EngineCounters& c = r.counters;
  os << "counters=" << c.expert_migrations << "," << c.gpu_expert_execs << ","
     << c.cpu_expert_execs << "," << c.cache_hits << "," << c.cache_misses
     << "," << c.prefetch_hits << "," << c.predictions << ","
     << c.mispredictions << "," << c.degradations << "," << c.prefill_swaps
     << "," << c.decode_swaps << "," << c.skipped_experts << ","
     << c.migration_retries << "," << c.migration_aborts << ","
     << c.stale_precalcs << "," << hexf(c.hazard_stall_s) << "\n";
  os << "chrome_trace_fnv1a=" << fnv1a_hex(json) << "\n";
  return os.str();
}

std::string all_snapshots() {
  const std::vector<eval::EngineKind> kinds = eval::extended_baseline_engines();
  const std::vector<data::WorkloadSpec> workloads = {data::c4(),
                                                     data::gsm8k()};
  const std::uint64_t seeds[] = {7, 23, 123};
  std::string out;
  for (const auto kind : kinds) {
    for (const auto& wl : workloads) {
      for (const auto seed : seeds) {
        out += run_snapshot(kind, wl, seed);
        out += "\n";
      }
    }
  }
  return out;
}

const char* kGoldenPath = DAOP_GOLDEN_DIR "/session_runs.golden";

TEST(SessionDeterminism, MatchesPreRefactorGoldens) {
  daop::testing::expect_matches_golden(kGoldenPath, all_snapshots());
}

/// Same engine, same inputs, twice in a row: engines must not carry hidden
/// state across runs (a session leak would show up here).
TEST(SessionDeterminism, RepeatedRunsAreBitIdentical) {
  for (const auto kind : eval::extended_baseline_engines()) {
    const std::string a = run_snapshot(kind, data::c4(), 7);
    const std::string b = run_snapshot(kind, data::c4(), 7);
    EXPECT_EQ(a, b) << engine_kind_name(kind);
  }
}

}  // namespace
}  // namespace daop::engines
