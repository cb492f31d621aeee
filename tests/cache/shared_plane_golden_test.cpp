// Byte-identical golden of the shared-placement plane: the PlacementArbiter
// that every session of a node pins through and the ExpertCache that
// re-scores the node's one placement.
//
// The grid runs every dynamic cache policy x {C4, GSM8K} x 3 seeds x hazards
// {none, all} on one 4-slot continuous-batching node under deadline-edf with
// preemption, plus a 3-node cluster with a crash under lfu. Each block pins
// the FNV of the full cache ledger (every CacheEvent field), every
// refusal's holder list and describe() text, the cache and engine counters
// and the per-request outcomes. A last block drives an arbiter and a cache
// directly with random foreign pins, so refusals (which a session's own
// scan pre-filters) and their holder order are pinned too. A reordered
// holder list, a different victim or a moved commit time fails here.
//
// Regenerate (only after an INTENTIONAL placement-plane change) with:
//   DAOP_UPDATE_GOLDENS=1 ./shared_plane_golden_test
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "../testing/golden.hpp"
#include "../testing/helpers.hpp"
#include "cache/arbiter.hpp"
#include "cache/calibration.hpp"
#include "cache/expert_cache.hpp"
#include "cluster/router.hpp"
#include "common/rng.hpp"
#include "data/trace_generator.hpp"
#include "eval/continuous_batching.hpp"
#include "eval/speed.hpp"
#include "sim/fault_model.hpp"

#ifndef DAOP_GOLDEN_DIR
#error "DAOP_GOLDEN_DIR must be defined by the build"
#endif

namespace daop::cache {
namespace {

using daop::testing::fnv1a_hex;
using daop::testing::hexf;

/// Every field of every ledger event, one event per line, hashed.
std::string ledger_line(const ExpertCache& ec) {
  std::ostringstream ev;
  for (const CacheEvent& e : ec.ledger()) {
    ev << static_cast<int>(e.kind) << " " << e.layer << " " << e.expert << " "
       << e.peer << " " << e.session << " " << hexf(e.time) << " "
       << e.victim_other_pins << " " << e.gpu_count_after << " " << e.capacity
       << "\n";
  }
  std::ostringstream os;
  os << "cache=" << ec.plans() << "," << ec.fills() << "," << ec.evictions()
     << "," << ec.aborts() << "," << ec.refusals().size()
     << " ledger_events=" << ec.ledger().size()
     << " ledger_fnv1a=" << fnv1a_hex(ev.str()) << "\n";
  for (const CacheRefusal& r : ec.refusals()) {
    os << "refusal holders=";
    for (const long long h : r.holders) os << h << ",";
    os << " " << r.describe() << "\n";
  }
  return os.str();
}

std::string counters_line(const engines::EngineCounters& c) {
  std::ostringstream os;
  os << "counters=" << c.expert_migrations << "," << c.gpu_expert_execs << ","
     << c.cpu_expert_execs << "," << c.cache_hits << "," << c.cache_misses
     << "," << c.degradations << "," << c.decode_swaps << ","
     << c.migration_retries << "," << c.migration_aborts << ","
     << c.pin_refusals << "," << c.preemptions << "," << c.preempt_resumes
     << "," << hexf(c.hazard_stall_s) << "\n";
  return os.str();
}

Placement calibrated(const model::ModelConfig& cfg, std::uint64_t seed) {
  const data::TraceGenerator calib(data::sharegpt_calibration(), cfg.n_layers,
                                   cfg.n_experts, cfg.top_k, seed ^ 0xCA11Bu);
  return init_placement_calibrated(cfg.n_layers, cfg.n_experts, 0.35,
                                   calibrate_activation_counts(calib, 4));
}

/// Gen length of request `i`: varied so sessions finish out of step.
int gen_len(int i) { return 20 + 4 * (i % 4); }

std::string node_snapshot(CachePolicy policy, const data::WorkloadSpec& wl,
                          const char* wl_name, std::uint64_t seed,
                          const char* hazard) {
  const model::ModelConfig cfg = daop::testing::small_mixtral();
  const sim::CostModel cm(sim::a6000_i9_platform());
  const model::OpCosts costs(cfg, cm);
  const data::TraceGenerator gen(wl, cfg.n_layers, cfg.n_experts, cfg.top_k,
                                 seed);
  auto engine = eval::make_engine(eval::EngineKind::Daop, costs);
  sim::FaultModel fault(sim::make_hazard_scenario(hazard, 0.8),
                        seed ^ 0xFA017ULL);
  if (fault.enabled()) engine->set_fault_model(&fault);

  eval::ContinuousBatchingScheduler::Options opt;
  opt.max_concurrent = 4;
  opt.overload.admission = eval::AdmissionPolicy::kDeadlineEdf;
  opt.overload.preempt = true;
  opt.overload.queue_capacity = 8;
  opt.overload.deadline_s = 2.0;
  opt.overload.service_estimate_s = 0.3;
  opt.cache.policy = policy;
  opt.cache.realloc_interval = 2;
  sim::Timeline tl;
  eval::ContinuousBatchingScheduler sched(*engine, tl, calibrated(cfg, seed),
                                          opt);
  for (int i = 0; i < 12; ++i) {
    eval::ContinuousBatchingScheduler::Request req;
    req.id = i;
    req.arrival = 0.08 * i;
    if (i % 3 == 2) req.deadline_s = 0.8;  // deadline-critical: preempts
    req.trace = gen.generate(i, /*prompt=*/16, gen_len(i));
    sched.enqueue(std::move(req));
  }
  const auto outcomes = sched.run();

  std::ostringstream os;
  os << "[" << cache_policy_name(policy) << " | " << wl_name << " | seed "
     << seed << " | hazard " << hazard << "]\n";
  engines::EngineCounters total;
  os << "outcomes=";
  for (const auto& o : outcomes) {
    os << o.id << ":"
       << (o.served ? "served"
                    : o.shed ? eval::shed_reason_name(o.shed_reason)
                             : "dropped")
       << "/" << hexf(o.start) << "/" << hexf(o.end) << "/" << o.retries
       << "/" << o.preemptions << " ";
    if (o.served) total.add(o.result.counters);
  }
  os << "\n" << counters_line(total);
  const eval::OverloadStats& ov = sched.overload_stats();
  os << "overload=" << ov.shed_total << "," << ov.preemptions << ","
     << ov.preempt_resumes << "\n";
  os << ledger_line(*sched.expert_cache());
  os << "pins_left=" << sched.arbiter().total_pin_count() << "\n";
  return os.str();
}

std::string cluster_snapshot() {
  const model::ModelConfig cfg = daop::testing::small_mixtral();
  const sim::CostModel cm(sim::a6000_i9_platform());
  const model::OpCosts costs(cfg, cm);
  const std::uint64_t seed = 7;
  const data::TraceGenerator gen(data::c4(), cfg.n_layers, cfg.n_experts,
                                 cfg.top_k, seed);
  const Placement initial = calibrated(cfg, seed);
  std::vector<cluster::ClusterRouter::NodeSeat> seats(3);
  for (int n = 0; n < 3; ++n) {
    auto& seat = seats[static_cast<std::size_t>(n)];
    seat.engine = eval::make_engine(eval::EngineKind::Daop, costs);
    seat.fault = std::make_unique<sim::FaultModel>(
        sim::make_hazard_scenario("all", 0.8), seed * 31 + n);
    seat.initial = initial;
  }
  cluster::ClusterOptions opt;
  opt.max_concurrent_per_node = 4;
  opt.dispatch = cluster::DispatchPolicy::kLeastLoaded;
  opt.health.enabled = true;
  opt.health.probe_interval_s = 0.5;
  opt.service_estimate_s = 0.3;
  opt.crash_node = 1;
  opt.crash_time_s = 3.0;
  opt.cache.policy = CachePolicy::kLfu;
  opt.cache.realloc_interval = 2;
  cluster::ClusterRouter router(std::move(seats), opt);
  for (int i = 0; i < 24; ++i) {
    cluster::ClusterRouter::Request req;
    req.id = i;
    req.arrival = 0.06 * i;
    req.trace = gen.generate(i, /*prompt=*/16, gen_len(i));
    router.enqueue(std::move(req));
  }
  const auto outcomes = router.run();

  std::ostringstream os;
  os << "[cluster | lfu | 3 nodes, node 1 crashes | seed " << seed << "]\n";
  engines::EngineCounters total;
  os << "outcomes=";
  for (const auto& o : outcomes) {
    os << o.id << ":" << (o.served ? "served" : "shed") << "/" << o.node
       << "/" << hexf(o.start) << "/" << hexf(o.end) << "/" << o.failovers
       << " ";
    if (o.served) total.add(o.result.counters);
  }
  os << "\n" << counters_line(total);
  for (int n = 0; n < router.n_nodes(); ++n) {
    os << "node " << n << " " << ledger_line(*router.node_cache(n));
  }
  os << "pins_left=" << router.total_leaked_pins() << "\n";
  return os.str();
}

/// One cache and arbiter driven directly: sessions 1..6 pin random GPU
/// experts, scans plan without the arbiter (so pinned victims are planned)
/// and every swap commits through try_swap, or is refused and recorded
/// with the arbiter's holder list.
std::string direct_snapshot(CachePolicy policy) {
  const int n_layers = 3;
  const int n_experts = 8;
  Placement initial(n_layers, n_experts);
  for (int l = 0; l < n_layers; ++l) {
    initial.set_capacity(l, 3);
    for (int e = 0; e < 3; ++e) initial.move_to_gpu(l, e);
  }
  PlacementArbiter arb(initial);
  ExpertCacheOptions o;
  o.policy = policy;
  o.max_swaps_per_step = 4;
  ExpertCache ec(o, n_layers, n_experts);
  const data::TraceGenerator gen(data::c4(), n_layers, n_experts, 2, 5);
  for (long long s = 1; s <= 6; ++s) {
    ec.note_session_open(s, gen.generate(static_cast<int>(s), 8, 4));
  }
  Rng rng(0x5EED0 + static_cast<std::uint64_t>(policy));
  double t = 0.0;
  for (int step = 0; step < 200; ++step) {
    const long long s = rng.uniform_int(1, 6);
    const int l = rng.uniform_int(0, n_layers - 1);
    const int e = rng.uniform_int(0, n_experts - 1);
    t += 0.01;
    ec.note_use(l, e, s, t);
    if (arb.placement().on_gpu(l, e) && rng.uniform() < 0.5) {
      arb.pin(l, e, s);
    }
    if (step % 7 == 6) {
      for (const PlannedSwap& sw : ec.plan(arb.placement(), nullptr, s)) {
        if (arb.try_swap(sw.layer, sw.expert_in, sw.expert_out, s)) {
          ec.commit(sw, s, t, 0, arb.placement());
        } else {
          ec.record_refusal(sw, s, t,
                            arb.pinning_sessions(sw.layer, sw.expert_out));
        }
      }
    }
    if (step % 23 == 22) arb.unpin_session(1 + (step / 23) % 6);
  }
  std::ostringstream os;
  os << "[direct | " << cache_policy_name(policy) << "]\n" << ledger_line(ec);
  os << "pins=" << arb.total_pin_count() << "\n";
  return os.str();
}

std::string all_snapshots() {
  std::string out;
  for (const CachePolicy policy : testing::dynamic_cache_policies()) {
    for (const bool c4 : {true, false}) {
      for (const std::uint64_t seed : {7ull, 23ull, 123ull}) {
        for (const char* hazard : {"none", "all"}) {
          out += node_snapshot(policy, c4 ? data::c4() : data::gsm8k(),
                               c4 ? "C4" : "GSM8K", seed, hazard);
          out += "\n";
        }
      }
    }
  }
  out += cluster_snapshot();
  for (const CachePolicy policy : testing::dynamic_cache_policies()) {
    out += "\n";
    out += direct_snapshot(policy);
  }
  return out;
}

TEST(SharedPlaneGolden, LedgersRefusalsAndOutcomesMatch) {
  daop::testing::expect_matches_golden(
      DAOP_GOLDEN_DIR "/shared_plane.golden", all_snapshots());
}

}  // namespace
}  // namespace daop::cache
