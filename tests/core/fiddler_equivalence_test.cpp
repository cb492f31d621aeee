// Fiddler is DAOP with its three mechanisms off (core::fiddler_config()):
// in-place hybrid execution with no sequence-specific allocation (§IV-B), no
// pre-calculation (§IV-C) and no graceful degradation. The digests below
// were captured from a separate Fiddler implementation (its own session and
// batch driver) while a differential test proved both bit-identical to DAOP
// with the mechanisms off; they pin Fiddler on every path a run can take:
//  - single sequences: {C4, GSM8K} x seeds {7, 23, 123} x ECR {25, 46.9,
//    62.5}% x hazards {none, all}, compared on times, energy, counters and
//    the Chrome-trace bytes;
//  - three sessions interleaved on one shared timeline under a
//    PlacementArbiter with an lfu dynamic cache, one of them opened with the
//    no-migrations degradation directive;
//  - the batch driver at B in {1, 3, 8, 16}, calm and under hazards.
//
// Regenerate tests/golden/fiddler_equivalence.golden (only after an
// INTENTIONAL behaviour change) with:
//   DAOP_UPDATE_GOLDENS=1 ./fiddler_equivalence_test
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "../testing/golden.hpp"
#include "../testing/helpers.hpp"
#include "cache/arbiter.hpp"
#include "cache/calibration.hpp"
#include "cache/expert_cache.hpp"
#include "core/daop_batch.hpp"
#include "core/daop_engine.hpp"
#include "data/trace_generator.hpp"
#include "engines/session.hpp"
#include "eval/speed.hpp"
#include "obs/span_tracer.hpp"
#include "sim/fault_model.hpp"
#include "sim/trace_export.hpp"

#ifndef DAOP_GOLDEN_DIR
#error "DAOP_GOLDEN_DIR must be defined by the build"
#endif

namespace daop::core {
namespace {

using daop::testing::fnv1a_hex;
using daop::testing::hexf;

struct Fixture {
  model::ModelConfig cfg = daop::testing::small_mixtral();
  sim::CostModel cm{sim::a6000_i9_platform()};
  model::OpCosts costs{cfg, cm};

  cache::Placement placement(double ecr, std::uint64_t seed) const {
    const data::TraceGenerator calib(data::sharegpt_calibration(),
                                     cfg.n_layers, cfg.n_experts, cfg.top_k,
                                     seed ^ 0xCA11Bu);
    return cache::init_placement_calibrated(
        cfg.n_layers, cfg.n_experts, ecr,
        cache::calibrate_activation_counts(calib, 6));
  }
};

sim::HazardScenario hazard(bool on) {
  return on ? sim::make_hazard_scenario("all", 0.5) : sim::HazardScenario{};
}

void write_counters(std::ostringstream& os,
                    const engines::EngineCounters& c) {
  os << "counters=" << c.expert_migrations << "," << c.gpu_expert_execs << ","
     << c.cpu_expert_execs << "," << c.cache_hits << "," << c.cache_misses
     << "," << c.prefetch_hits << "," << c.predictions << ","
     << c.mispredictions << "," << c.degradations << "," << c.prefill_swaps
     << "," << c.decode_swaps << "," << c.skipped_experts << ","
     << c.migration_retries << "," << c.migration_aborts << ","
     << c.stale_precalcs << "," << c.pin_refusals << ","
     << c.degraded_sessions << "," << hexf(c.hazard_stall_s) << "\n";
}

void write_run(std::ostringstream& os, const engines::RunResult& r) {
  os << "tokens=" << r.prompt_tokens << "+" << r.generated_tokens << "\n";
  os << "times=" << hexf(r.prefill_s) << " " << hexf(r.decode_s) << " "
     << hexf(r.total_s) << "\n";
  os << "rates=" << hexf(r.tokens_per_s) << " " << hexf(r.decode_tokens_per_s)
     << " " << hexf(r.tokens_per_kj) << "\n";
  os << "energy=" << hexf(r.energy.gpu_j) << " " << hexf(r.energy.cpu_j) << " "
     << hexf(r.energy.pcie_j) << " " << hexf(r.energy.base_j) << " "
     << hexf(r.energy.total_j) << " " << hexf(r.energy.avg_power_w) << "\n";
  write_counters(os, r.counters);
}

// ---- Single sequences ----

struct SingleCase {
  data::WorkloadSpec wl;
  std::uint64_t seed;
  double ecr;
  bool hazards;

  std::string label() const {
    std::ostringstream os;
    os << "[single | " << wl.name << " | seed " << seed << " | ecr " << ecr
       << " | hazard " << (hazards ? "all" : "none") << "]\n";
    return os.str();
  }
};

std::vector<SingleCase> single_grid() {
  std::vector<SingleCase> out;
  for (const data::WorkloadSpec& wl : {data::c4(), data::gsm8k()}) {
    for (const std::uint64_t seed : {7, 23, 123}) {
      for (const double ecr : {0.25, 0.469, 0.625}) {
        for (const bool hz : {false, true}) out.push_back({wl, seed, ecr, hz});
      }
    }
  }
  return out;
}

/// The run's digest (everything but the engine name) and the name.
struct Digest {
  std::string name;
  std::string body;
};

Digest single_digest(engines::Engine& engine, const Fixture& fx,
                     const SingleCase& c) {
  const data::TraceGenerator gen(c.wl, fx.cfg.n_layers, fx.cfg.n_experts,
                                 fx.cfg.top_k, c.seed);
  const data::SequenceTrace trace = gen.generate(0, 24, 12);
  const cache::Placement placement = fx.placement(c.ecr, c.seed);
  sim::FaultModel fault(hazard(c.hazards), c.seed ^ 0xFA017ULL);
  engine.set_fault_model(fault.enabled() ? &fault : nullptr);
  obs::SpanTracer tracer;
  engine.set_tracer(&tracer);
  sim::Timeline tl;
  tl.set_record_intervals(true);
  const engines::RunResult r = engine.run(trace, placement, &tl);
  engine.set_tracer(nullptr);
  engine.set_fault_model(nullptr);
  std::ostringstream os;
  write_run(os, r);
  os << "chrome_trace_fnv1a="
     << fnv1a_hex(sim::to_chrome_trace_json(tl, &tracer)) << "\n";
  return {r.engine, os.str()};
}

// ---- Shared timeline + arbiter + lfu cache ----

Digest shared_digest(engines::Engine& engine, const Fixture& fx,
                     std::uint64_t seed) {
  const cache::Placement initial = fx.placement(0.469, seed);
  cache::ExpertCacheOptions copt;
  copt.policy = cache::CachePolicy::kLfu;
  copt.realloc_interval = 2;
  cache::ExpertCache ecache(copt, fx.cfg.n_layers, fx.cfg.n_experts);
  cache::PlacementArbiter arbiter(initial);
  obs::SpanTracer tracer;
  engine.set_tracer(&tracer);
  sim::Timeline tl;
  tl.set_record_intervals(true);
  const data::TraceGenerator gen(data::c4(), fx.cfg.n_layers,
                                 fx.cfg.n_experts, fx.cfg.top_k, seed + 1);
  std::vector<data::SequenceTrace> traces;
  for (int i = 0; i < 3; ++i) traces.push_back(gen.generate(i, 16 + 4 * i, 12));
  std::vector<std::unique_ptr<engines::SequenceSession>> sessions;
  for (int i = 0; i < 3; ++i) {
    engines::SessionEnv env;
    env.timeline = &tl;
    env.start_time = 0.05 * i;
    env.request_id = 100 + i;
    env.arbiter = &arbiter;
    env.cache = &ecache;
    env.shared = true;
    env.degrade_no_migrations = i == 1;
    sessions.push_back(engine.open_session(
        traces[static_cast<std::size_t>(i)], arbiter.placement(), env));
    sessions.back()->prefill();
  }
  for (bool any = true; any;) {
    any = false;
    for (const auto& s : sessions) any = s->decode_step() || any;
  }
  std::ostringstream os;
  std::string name;
  for (const auto& s : sessions) {
    const engines::RunResult r = s->close();
    name = r.engine;
    os << "req " << s->request_id() << "\n";
    write_run(os, r);
  }
  engine.set_tracer(nullptr);
  os << "cache fills " << ecache.fills() << " refusals "
     << ecache.refusals().size() << " pins " << arbiter.total_pin_count()
     << "\n";
  os << "residency=";
  for (int l = 0; l < fx.cfg.n_layers; ++l) {
    for (int e = 0; e < fx.cfg.n_experts; ++e) {
      os << (arbiter.placement().on_gpu(l, e) ? '1' : '0');
    }
    os << (l + 1 < fx.cfg.n_layers ? "/" : "\n");
  }
  os << "chrome_trace_fnv1a="
     << fnv1a_hex(sim::to_chrome_trace_json(tl, &tracer)) << "\n";
  return {name, os.str()};
}

// ---- Batch driver ----

Digest batch_digest(const Fixture& fx, int batch, bool hazards) {
  const data::TraceGenerator gen(data::c4(), fx.cfg.n_layers,
                                 fx.cfg.n_experts, fx.cfg.top_k, 47);
  std::vector<data::SequenceTrace> traces;
  for (int i = 0; i < batch; ++i) traces.push_back(gen.generate(i, 16, 12));
  const cache::Placement placement = fx.placement(0.469, 13);
  sim::FaultModel fault(hazard(hazards), 0xBA7C4ULL);
  const BatchResult r =
      run_daop_batch(fx.costs, fiddler_config(), traces, placement,
                     fault.enabled() ? &fault : nullptr);
  std::ostringstream os;
  os << "batch=" << r.batch << " tokens=" << r.tokens_generated << "\n";
  os << "times=" << hexf(r.prefill_s) << " " << hexf(r.total_s) << "\n";
  os << "rates=" << hexf(r.tokens_per_s) << " "
     << hexf(r.per_seq_tokens_per_s) << " " << hexf(r.tokens_per_kj) << "\n";
  os << "energy=" << hexf(r.energy.gpu_j) << " " << hexf(r.energy.cpu_j) << " "
     << hexf(r.energy.pcie_j) << " " << hexf(r.energy.base_j) << " "
     << hexf(r.energy.total_j) << " " << hexf(r.energy.avg_power_w) << "\n";
  write_counters(os, r.counters);
  return {r.engine, os.str()};
}

const int kBatches[] = {1, 3, 8, 16};
const std::uint64_t kSharedSeeds[] = {7, 23, 123};

TEST(FiddlerEquivalence, MatchesGoldenDigests) {
  const Fixture fx;
  const auto fiddler = eval::make_engine(eval::EngineKind::Fiddler, fx.costs);
  std::string out;
  for (const SingleCase& c : single_grid()) {
    const Digest d = single_digest(*fiddler, fx, c);
    out += c.label() + "engine=" + d.name + "\n" + d.body + "\n";
  }
  for (const std::uint64_t seed : kSharedSeeds) {
    const Digest d = shared_digest(*fiddler, fx, seed);
    out += "[shared arbiter + lfu | seed " + std::to_string(seed) +
           "]\nengine=" + d.name + "\n" + d.body + "\n";
  }
  for (const int b : kBatches) {
    for (const bool hz : {false, true}) {
      const Digest d = batch_digest(fx, b, hz);
      out += "[batch | B " + std::to_string(b) + " | hazard " +
             (hz ? "all" : "none") + "]\nengine=" + d.name + "\n" + d.body +
             "\n";
    }
  }
  daop::testing::expect_matches_golden(
      DAOP_GOLDEN_DIR "/fiddler_equivalence.golden", out);
}

}  // namespace
}  // namespace daop::core
