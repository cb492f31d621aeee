// Property/invariant harness for the dynamic expert cache (ISSUE 7).
//
// Across every dynamic policy x seed x hazard scenario, a continuous-batching
// run with cache reallocation enabled must uphold the placement invariants
// the arbiter and ledger are designed around:
//   (a) pinned experts are never evicted (victim_other_pins == 0 on every
//       committed eviction),
//   (b) a layer's GPU-resident count never exceeds its slot capacity,
//   (c) every committed swap appears exactly once in the migration ledger
//       (an evict/fill pair, and the fill total matches the engines'
//       decode_swaps counter byte for byte),
//   (d) the arbiter's pin counts return to zero at shutdown.
// Plus scale-free plan() semantics and refusal diagnostics that name the
// contending sessions.
#include "cache/expert_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "../testing/helpers.hpp"
#include "cache/arbiter.hpp"
#include "cache/calibration.hpp"
#include "common/check.hpp"
#include "data/trace_generator.hpp"
#include "eval/continuous_batching.hpp"
#include "eval/speed.hpp"
#include "sim/fault_model.hpp"

namespace daop::cache {
namespace {

TEST(ExpertCacheOptions, ValidateRejectsBadKnobs) {
  ExpertCacheOptions o;
  o.policy = CachePolicy::kLru;
  o.realloc_interval = 0;
  EXPECT_THROW(o.validate(), CheckError);
  o = {};
  o.policy = CachePolicy::kLru;
  o.max_swaps_per_step = 0;
  EXPECT_THROW(o.validate(), CheckError);
  o = {};
  o.policy = CachePolicy::kLru;
  o.hysteresis = -0.1;
  EXPECT_THROW(o.validate(), CheckError);
}

TEST(ExpertCacheOptions, FrozenConstructsNoCache) {
  // The byte-identity contract: frozen means no ExpertCache exists anywhere,
  // so constructing one under frozen is a programming error.
  ExpertCacheOptions o;
  EXPECT_FALSE(o.enabled());
  EXPECT_THROW(ExpertCache(o, 2, 4), CheckError);
}

TEST(ExpertCachePolicy, ParseRoundTripsAndRejectsTypos) {
  for (const CachePolicy p : all_cache_policies()) {
    EXPECT_EQ(parse_cache_policy(cache_policy_name(p)), p);
  }
  EXPECT_THROW(parse_cache_policy("least-recently-used"), CheckError);
}

TEST(ExpertCachePlan, PromotesHotCpuExpertOverColdGpuVictim) {
  ExpertCacheOptions o;
  o.policy = CachePolicy::kLfu;
  ExpertCache cache(o, /*n_layers=*/1, /*n_experts=*/4);
  // 2 GPU slots holding {0, 1}; {2, 3} on CPU.
  Placement pl(1, 4);
  pl.set_capacity(0, 2);
  pl.move_to_gpu(0, 0);
  pl.move_to_gpu(0, 1);
  // Expert 2 (CPU) is hot, expert 1 (GPU) never used.
  for (int i = 0; i < 10; ++i) cache.note_use(0, 2, /*session=*/0, 0.1 * i);
  cache.note_use(0, 0, 0, 1.0);

  const auto swaps = cache.plan(pl, nullptr, /*session=*/0);
  ASSERT_EQ(swaps.size(), 1u);
  EXPECT_EQ(swaps[0].layer, 0);
  EXPECT_EQ(swaps[0].expert_in, 2);
  EXPECT_EQ(swaps[0].expert_out, 1);
}

TEST(ExpertCachePlan, SkipsVictimsPinnedByOtherSessions) {
  ExpertCacheOptions o;
  o.policy = CachePolicy::kLfu;
  ExpertCache cache(o, 1, 4);
  Placement pl(1, 4);
  pl.set_capacity(0, 2);
  pl.move_to_gpu(0, 0);
  pl.move_to_gpu(0, 1);
  for (int i = 0; i < 10; ++i) cache.note_use(0, 2, 0, 0.1 * i);

  PlacementArbiter arb(pl);
  // Session 7 is computing with both GPU residents: nothing to evict.
  arb.pin(0, 0, 7);
  arb.pin(0, 1, 7);
  EXPECT_TRUE(cache.plan(arb.placement(), &arb, /*session=*/0).empty());
  // Releasing one pin re-exposes that slot as a victim.
  arb.unpin(0, 1, 7);
  const auto swaps = cache.plan(arb.placement(), &arb, 0);
  ASSERT_EQ(swaps.size(), 1u);
  EXPECT_EQ(swaps[0].expert_out, 1);
}

TEST(ExpertCachePlan, HysteresisSuppressesNearTiedSwaps) {
  ExpertCacheOptions o;
  o.policy = CachePolicy::kLfu;
  o.hysteresis = 0.5;  // candidate must clear half the layer's score spread
  ExpertCache cache(o, 1, 4);
  Placement pl(1, 4);
  pl.set_capacity(0, 2);
  pl.move_to_gpu(0, 0);
  pl.move_to_gpu(0, 1);
  // Spread is 10 (expert 0); candidate 2 beats victim 1 by only 2 < 5.
  for (int i = 0; i < 10; ++i) cache.note_use(0, 0, 0, 0.0);
  for (int i = 0; i < 3; ++i) cache.note_use(0, 2, 0, 0.0);
  cache.note_use(0, 1, 0, 0.0);
  EXPECT_TRUE(cache.plan(pl, nullptr, 0).empty());
  // Widen the gap past the margin and the swap goes through.
  for (int i = 0; i < 5; ++i) cache.note_use(0, 2, 0, 0.0);
  EXPECT_EQ(cache.plan(pl, nullptr, 0).size(), 1u);
}

TEST(ExpertCacheRefusal, DiagnosticsNameContendingSessions) {
  ExpertCacheOptions o;
  o.policy = CachePolicy::kLru;
  ExpertCache cache(o, 1, 4);
  PlannedSwap s{0, 2, 1};
  cache.record_refusal(s, /*session=*/9, /*time=*/1.5, {31, 4});
  ASSERT_EQ(cache.refusals().size(), 1u);
  const std::string msg = cache.refusals()[0].describe();
  // Holders are sorted and named, and the requester is identified.
  EXPECT_NE(msg.find("sessions 4, 31"), std::string::npos) << msg;
  EXPECT_NE(msg.find("requested by session 9"), std::string::npos) << msg;
  EXPECT_NE(msg.find("layer 0"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------------
// Property harness: full continuous-batching runs, every dynamic policy x
// seed x hazard scenario, auditing the ledger and arbiter afterwards.

struct HarnessRun {
  long long fills = 0;
  long long evictions = 0;
  long long refusals = 0;
  long long aborts = 0;
  long long decode_swaps = 0;
  double last_end = 0.0;
};

HarnessRun run_cb_harness(CachePolicy policy, std::uint64_t seed,
                          const std::string& hazard) {
  const model::ModelConfig cfg = daop::testing::small_mixtral();
  const sim::CostModel cm(sim::a6000_i9_platform());
  const model::OpCosts costs(cfg, cm);

  const data::TraceGenerator calib(data::sharegpt_calibration(), cfg.n_layers,
                                   cfg.n_experts, cfg.top_k, seed ^ 0xCA11Bu);
  const cache::Placement initial = cache::init_placement_calibrated(
      cfg.n_layers, cfg.n_experts, 0.35,
      cache::calibrate_activation_counts(calib, 4));
  const data::TraceGenerator gen(data::gsm8k(), cfg.n_layers, cfg.n_experts,
                                 cfg.top_k, seed);

  auto engine = eval::make_engine(eval::EngineKind::Daop, costs);
  sim::FaultModel fault(sim::make_hazard_scenario(hazard, 0.6),
                        seed ^ 0xFA017ULL);
  if (fault.enabled()) engine->set_fault_model(&fault);

  eval::ContinuousBatchingScheduler::Options opt;
  opt.max_concurrent = 3;
  opt.cache.policy = policy;
  opt.cache.realloc_interval = 2;
  sim::Timeline tl;
  eval::ContinuousBatchingScheduler sched(*engine, tl, initial, opt);
  for (int i = 0; i < 8; ++i) {
    eval::ContinuousBatchingScheduler::Request req;
    req.id = i;
    req.arrival = 0.05 * i;
    req.trace = gen.generate(i, /*prompt=*/16, /*gen=*/24);
    sched.enqueue(std::move(req));
  }
  const auto outcomes = sched.run();

  HarnessRun out;
  const ExpertCache* ec = sched.expert_cache();
  EXPECT_NE(ec, nullptr);
  // Invariant (d): every pin released at shutdown.
  EXPECT_EQ(sched.arbiter().total_pin_count(), 0);
  // Invariant (c) part 1: totals are evict/fill pairs, each counted once.
  EXPECT_EQ(ec->fills(), ec->evictions());
  EXPECT_EQ(ec->ledger().size(),
            static_cast<std::size_t>(ec->fills() + ec->evictions()));
  for (std::size_t i = 0; i < ec->ledger().size(); i += 2) {
    const CacheEvent& evict = ec->ledger()[i];
    const CacheEvent& fill = ec->ledger()[i + 1];
    EXPECT_EQ(static_cast<int>(evict.kind),
              static_cast<int>(CacheEvent::Kind::kEvict));
    EXPECT_EQ(static_cast<int>(fill.kind),
              static_cast<int>(CacheEvent::Kind::kFill));
    // The pair describes one swap: each half names the other as its peer,
    // committed by the same session at the same instant.
    EXPECT_EQ(evict.peer, fill.expert);
    EXPECT_EQ(fill.peer, evict.expert);
    EXPECT_EQ(evict.layer, fill.layer);
    EXPECT_EQ(evict.session, fill.session);
    EXPECT_EQ(evict.time, fill.time);
    // Invariant (a): the evicted expert was never pinned by another session.
    EXPECT_EQ(evict.victim_other_pins, 0);
    // Invariant (b): capacity was respected after both halves.
    EXPECT_LE(evict.gpu_count_after, evict.capacity);
    EXPECT_LE(fill.gpu_count_after, fill.capacity);
    EXPECT_GT(fill.time, 0.0);
  }
  out.fills = ec->fills();
  out.evictions = ec->evictions();
  out.refusals = static_cast<long long>(ec->refusals().size());
  out.aborts = ec->aborts();
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.served);
    out.decode_swaps += o.result.counters.decode_swaps;
    out.last_end = std::max(out.last_end, o.end);
  }
  // Invariant (c) part 2: in shared (continuous-batching) mode DAOP's own
  // decode realloc is off, so every decode swap is a cache fill and the
  // ledger accounts for each exactly once.
  EXPECT_EQ(out.decode_swaps, out.fills);
  return out;
}

TEST(ExpertCacheInvariants, HoldAcrossPoliciesSeedsAndHazards) {
  long long total_fills = 0;
  for (const CachePolicy policy : testing::dynamic_cache_policies()) {
    for (const std::uint64_t seed : {7ull, 23ull, 123ull}) {
      for (const char* hazard : {"none", "all"}) {
        SCOPED_TRACE(std::string(cache_policy_name(policy)) + " seed " +
                     std::to_string(seed) + " hazard " + hazard);
        const HarnessRun r = run_cb_harness(policy, seed, hazard);
        total_fills += r.fills;
      }
    }
  }
  // The property sweep is vacuous if no configuration ever commits a swap.
  EXPECT_GT(total_fills, 0);
}

TEST(ExpertCacheInvariants, DynamicPoliciesAreDeterministic) {
  for (const CachePolicy policy :
       {CachePolicy::kLru, CachePolicy::kReusePredictor}) {
    SCOPED_TRACE(cache_policy_name(policy));
    const HarnessRun a = run_cb_harness(policy, 7, "all");
    const HarnessRun b = run_cb_harness(policy, 7, "all");
    EXPECT_EQ(a.fills, b.fills);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.refusals, b.refusals);
    EXPECT_EQ(a.aborts, b.aborts);
    EXPECT_EQ(a.decode_swaps, b.decode_swaps);
    // Bit-identity, not tolerance.
    EXPECT_EQ(a.last_end, b.last_end);
  }
}

}  // namespace
}  // namespace daop::cache
