// Golden lockdown for `--cache-policy frozen` (ISSUE 7): the default cache
// policy must leave every engine byte-identical to the pre-cache goldens.
// Frozen constructs no ExpertCache anywhere, so the snapshot here runs the
// exact same code as tests/engines/session_determinism_test.cpp — and this
// test proves it by (1) comparing against its own committed golden and
// (2) byte-comparing that golden with session_runs.golden. Any wiring change
// that makes frozen consult the cache — a stray note_use, an unconditional
// plan() call, an extra metric family — diverges one of the 48 snapshot
// blocks (8 engines x 2 workloads x 3 seeds) and fails here.
//
// Regenerate (only after an INTENTIONAL scheduling/tracing change, together
// with session_runs.golden) with:
//   DAOP_UPDATE_GOLDENS=1 ./cache_frozen_golden_test
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../testing/golden.hpp"
#include "../testing/helpers.hpp"
#include "cache/calibration.hpp"
#include "cache/expert_cache.hpp"
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

/// One snapshot block, formatted exactly like session_determinism_test.cpp
/// so cache_frozen.golden and session_runs.golden are byte-comparable.
std::string run_snapshot(eval::EngineKind kind, const data::WorkloadSpec& wl,
                         std::uint64_t seed) {
  // The policy under lockdown: frozen is the default and constructs nothing.
  const cache::ExpertCacheOptions frozen;
  EXPECT_FALSE(frozen.enabled());

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

const char* kGoldenPath = DAOP_GOLDEN_DIR "/cache_frozen.golden";
const char* kSessionGoldenPath = DAOP_GOLDEN_DIR "/session_runs.golden";

std::string read_file(const char* path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << "missing golden file " << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

TEST(CacheFrozenGolden, MatchesCommittedGolden) {
  daop::testing::expect_matches_golden(kGoldenPath, all_snapshots());
}

TEST(CacheFrozenGolden, ByteIdenticalToPreCacheSessionGolden) {
  // The actual lockdown: frozen's golden IS the pre-cache golden, byte for
  // byte. If the cache PR had perturbed any frozen-path behaviour, the two
  // files could not both pass their own tests and this comparison.
  EXPECT_EQ(read_file(kGoldenPath), read_file(kSessionGoldenPath));
}

TEST(CacheFrozenGolden, FrozenSpeedEvalKeepsTheEngineRunPath) {
  // Contract test for eval/speed.cpp: policy frozen must keep using
  // Engine::run() (no arbiter, no session driver), producing bit-identical
  // results to a direct run. Routing frozen through the dynamic-session
  // path — even if numerically equal today — would silently decouple the
  // frozen CLI mode from the goldens above.
  const model::ModelConfig cfg = daop::testing::small_mixtral();
  eval::SpeedEvalOptions opt;
  opt.n_seqs = 2;
  opt.prompt_len = 24;
  opt.gen_len = 12;
  opt.ecr = 0.469;
  opt.calibration_seqs = 6;
  EXPECT_FALSE(opt.cache.enabled());  // frozen is the default
  const auto results = eval::run_speed_eval_per_sequence(
      eval::EngineKind::Daop, cfg, sim::a6000_i9_platform(), data::gsm8k(),
      opt);

  const sim::CostModel cm(sim::a6000_i9_platform());
  const model::OpCosts costs(cfg, cm);
  const data::TraceGenerator calib(data::sharegpt_calibration(), cfg.n_layers,
                                   cfg.n_experts, cfg.top_k,
                                   opt.seed ^ 0xCA11Bu);
  const auto placement = cache::init_placement_calibrated(
      cfg.n_layers, cfg.n_experts, opt.ecr,
      cache::calibrate_activation_counts(calib, opt.calibration_seqs));
  const data::TraceGenerator gen(data::gsm8k(), cfg.n_layers, cfg.n_experts,
                                 cfg.top_k, opt.seed);
  auto engine = eval::make_engine(eval::EngineKind::Daop, costs,
                                  opt.daop_config);
  for (int s = 0; s < opt.n_seqs; ++s) {
    const auto trace = gen.generate(s, opt.prompt_len, opt.gen_len);
    const RunResult direct = engine->run(trace, placement);
    EXPECT_EQ(results[static_cast<std::size_t>(s)].total_s, direct.total_s);
    EXPECT_EQ(results[static_cast<std::size_t>(s)].decode_s, direct.decode_s);
    EXPECT_EQ(results[static_cast<std::size_t>(s)].counters.decode_swaps,
              direct.counters.decode_swaps);
    EXPECT_EQ(results[static_cast<std::size_t>(s)].counters.cache_hits,
              direct.counters.cache_hits);
  }
}

}  // namespace
}  // namespace daop::engines
