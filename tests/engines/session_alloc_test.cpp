// Heap-allocation budget of the session hot path. Sessions borrow their
// routing trace instead of copying it, and engines keep their per-layer
// selection buffers as session scratch, so:
//  - opening a session costs a fixed number of allocations, independent of
//    how many tokens the trace holds, and DAOP's and Fiddler's prefill
//    allocates nothing (stored activation counts, Algorithm 1 in session
//    scratch);
//  - a decode step on a private timeline with no tracer or profiler makes
//    no heap allocation at all once the session is warm.
// The shared serving path keeps the same budget once warm: arbiter pins
// (session count rows are pooled across session ids), a cache scan with or
// without a planned swap, a decode step of sessions interleaved
// on one timeline under an arbiter and an lfu cache, and time-series
// recording into existing series allocate nothing, and a checkpoint is
// exactly one allocation (the sealed blob).
// A counting global operator new makes every allocation in this binary
// visible; a regression that reintroduces a per-session deep copy of the
// trace or a per-layer vector fails here before it shows up as lost
// throughput.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "cache/arbiter.hpp"
#include "cache/calibration.hpp"
#include "cache/expert_cache.hpp"
#include "core/daop_engine.hpp"
#include "data/trace_generator.hpp"
#include "engines/session.hpp"
#include "eval/speed.hpp"
#include "obs/timeseries.hpp"
#include "../testing/helpers.hpp"

namespace {
std::atomic<long long> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// The nothrow forms (std::stable_sort's temporary buffer) must come from the
// same malloc: a sanitizer runtime's own nothrow new would not pair with the
// free() below.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace daop::engines {
namespace {

long long allocs() { return g_allocs.load(std::memory_order_relaxed); }

/// Decode steps run before the per-step budget is measured.
constexpr int kWarmupSteps = 8;

struct Rig {
  model::ModelConfig cfg = model::mixtral_8x7b();
  sim::CostModel cm{sim::a6000_i9_platform()};
  model::OpCosts costs{cfg, cm};
  data::TraceGenerator gen{data::c4(), cfg.n_layers, cfg.n_experts, cfg.top_k,
                           11};
  data::SequenceTrace short_trace = gen.generate(0, 64, 32);
  data::SequenceTrace long_trace = gen.generate(1, 256, 512);
  cache::Placement placement = [this] {
    const data::TraceGenerator calib(data::sharegpt_calibration(),
                                     cfg.n_layers, cfg.n_experts, cfg.top_k,
                                     99);
    return cache::init_placement_calibrated(
        cfg.n_layers, cfg.n_experts, 0.469,
        cache::calibrate_activation_counts(calib, 4));
  }();
};

/// Allocation counts of one session driven to completion.
struct SessionAllocs {
  long long open = 0;
  long long steps_measured = 0;
  long long step_allocs = 0;  ///< over the steps after the warm-up
  EngineCounters counters;
};

SessionAllocs drive(Engine& engine, const data::SequenceTrace& trace,
                    const cache::Placement& placement) {
  SessionAllocs a;
  const long long before_open = allocs();
  std::unique_ptr<SequenceSession> s = engine.open_session(trace, placement, {});
  a.open = allocs() - before_open;
  s->prefill();
  for (int i = 0; i < kWarmupSteps; ++i) EXPECT_TRUE(s->decode_step());
  const long long before_steps = allocs();
  while (s->decode_step()) ++a.steps_measured;
  a.step_allocs = allocs() - before_steps;
  a.counters = s->close().counters;
  return a;
}

TEST(SessionAlloc, DecodeStepIsAllocationFreeAndOpenIsTraceLengthIndependent) {
  const Rig rig;
  for (const eval::EngineKind kind : eval::extended_baseline_engines()) {
    SCOPED_TRACE(eval::engine_kind_name(kind));
    const std::unique_ptr<Engine> engine = eval::make_engine(kind, rig.costs);
    // Warm the thread-local session-buffer pool so both measured opens see
    // the same pool state.
    (void)drive(*engine, rig.short_trace, rig.placement);

    const SessionAllocs s = drive(*engine, rig.short_trace, rig.placement);
    const SessionAllocs l = drive(*engine, rig.long_trace, rig.placement);
    EXPECT_EQ(s.open, l.open)
        << "open_session must not copy the trace (64+32 vs 256+512 tokens)";
    EXPECT_EQ(s.steps_measured, 32 - kWarmupSteps);
    EXPECT_EQ(l.steps_measured, 512 - kWarmupSteps);
    EXPECT_EQ(s.step_allocs, 0);
    EXPECT_EQ(l.step_allocs, 0);
  }
}

// Every DAOP decode-policy branch is pinned, not just the default config:
// each variant must reach its branch (its distinguishing counter is
// non-zero) and still make no allocation per decode step.
TEST(SessionAlloc, DaopDecodeStepIsAllocationFreeOnEveryPolicyBranch) {
  const Rig rig;
  struct Variant {
    const char* name;
    core::DaopConfig config;
    long long EngineCounters::*reached;
  };
  std::vector<Variant> variants;
  core::DaopConfig c;
  c.mispredict_policy = core::MispredictPolicy::GracefulFallback;
  variants.push_back({"graceful-fallback", c, &EngineCounters::degradations});
  c = {};
  c.skip_top1_margin = 0.7;
  variants.push_back({"skip-0.7", c, &EngineCounters::skipped_experts});
  c = {};
  c.stale_precalc_factor = 0.5;
  variants.push_back({"stale-0.5", c, &EngineCounters::stale_precalcs});
  c = {};
  c.enable_degradation = false;
  variants.push_back({"no-degradation", c, &EngineCounters::mispredictions});
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    core::DaopEngine engine(rig.costs, v.config);
    (void)drive(engine, rig.short_trace, rig.placement);  // warm
    const SessionAllocs a = drive(engine, rig.short_trace, rig.placement);
    EXPECT_EQ(a.steps_measured, 32 - kWarmupSteps);
    EXPECT_EQ(a.step_allocs, 0);
    EXPECT_GT(a.counters.*v.reached, 0);
  }
}

/// Allocations of open_session and of prefill for one trace.
struct PrefillAllocs {
  long long open = 0;
  long long prefill = 0;
  long long prefill_swaps = 0;
};

PrefillAllocs open_and_prefill(Engine& engine,
                               const data::SequenceTrace& trace,
                               const cache::Placement& placement) {
  PrefillAllocs a;
  const long long before_open = allocs();
  std::unique_ptr<SequenceSession> s = engine.open_session(trace, placement, {});
  a.open = allocs() - before_open;
  const long long before_prefill = allocs();
  s->prefill();
  a.prefill = allocs() - before_prefill;
  a.prefill_swaps = s->close().counters.prefill_swaps;
  return a;
}

// Prefill reads the trace's stored activation counts and plans Algorithm 1
// in session scratch, so opening a session costs the same at any prompt
// length and its prefill allocates nothing. The two
// traces route every token alike (experts 3 and 6; about half of those
// (layer, expert) pairs are off-GPU under the calibrated placement), so
// Algorithm 1 sees proportional counts and makes the same swaps at both
// lengths.
TEST(SessionAlloc, OpenAndPrefillArePromptLengthIndependent) {
  const Rig rig;
  const data::SequenceTrace short_prompt =
      daop::testing::fixed_trace(rig.cfg, 16, 8, {3, 6});
  const data::SequenceTrace long_prompt =
      daop::testing::fixed_trace(rig.cfg, 512, 8, {3, 6});
  for (const eval::EngineKind kind :
       {eval::EngineKind::Daop, eval::EngineKind::Fiddler}) {
    SCOPED_TRACE(eval::engine_kind_name(kind));
    const std::unique_ptr<Engine> engine = eval::make_engine(kind, rig.costs);
    (void)open_and_prefill(*engine, short_prompt, rig.placement);  // warm

    const PrefillAllocs s =
        open_and_prefill(*engine, short_prompt, rig.placement);
    const PrefillAllocs l =
        open_and_prefill(*engine, long_prompt, rig.placement);
    EXPECT_EQ(s.open, l.open);
    EXPECT_EQ(s.prefill, l.prefill) << "16 vs 512 prompt tokens";
    // Stored counts, and Algorithm 1 writes into session scratch (DAOP
    // swaps here; Fiddler's placement is static): nothing to allocate.
    EXPECT_EQ(s.prefill, 0);
    EXPECT_EQ(l.prefill, 0);
    if (kind == eval::EngineKind::Daop) {
      EXPECT_GT(s.prefill_swaps, 0);
      EXPECT_EQ(s.prefill_swaps, l.prefill_swaps);
    }
  }
}

// The budgets above are only meaningful if the counter sees allocations.
// The witness is building a trace: one buffer per phase, the same number
// of allocations at any length. Copying a trace shares those buffers, so a
// copy of either length allocates nothing.
TEST(SessionAlloc, CounterObservesTraceCopies) {
  const Rig rig;
  const auto shaped = [&rig](int prompt_len, int gen_len) {
    return data::SequenceTrace(rig.cfg.n_layers, rig.cfg.n_experts,
                               rig.cfg.top_k, prompt_len, gen_len);
  };
  long long before = allocs();
  const data::SequenceTrace short_built = shaped(64, 32);
  const long long short_allocs = allocs() - before;
  before = allocs();
  const data::SequenceTrace long_built = shaped(256, 512);
  const long long long_allocs = allocs() - before;
  EXPECT_GT(short_allocs, 0);
  EXPECT_EQ(short_allocs, long_allocs);

  before = allocs();
  const data::SequenceTrace short_copy = short_built;
  EXPECT_EQ(allocs() - before, 0);
  before = allocs();
  const data::SequenceTrace long_copy = long_built;
  EXPECT_EQ(allocs() - before, 0);
  EXPECT_EQ(short_copy.gen_len, 32);
  EXPECT_EQ(long_copy.gen_len, 512);
}

TEST(SessionAlloc, ArbiterPinsAreAllocationFreeOnceWarm) {
  const Rig rig;
  cache::PlacementArbiter arbiter(rig.placement);
  const auto churn = [&arbiter](int round) {
    // Four sessions pin overlapping working sets, nest a pin, query, and
    // release in an order that differs from the pin order.
    for (long long s = 0; s < 4; ++s) {
      for (int l = 0; l < 4; ++l) {
        arbiter.pin(l, static_cast<int>((s + l + round) % 8), s);
        arbiter.pin(l, 3, s);
      }
    }
    arbiter.pin(2, 3, 1);
    int blocked = 0;
    for (long long s = 0; s < 4; ++s) {
      for (int e = 0; e < 8; ++e) blocked += arbiter.pinned_by_other(1, e, s);
    }
    arbiter.unpin(2, 3, 1);
    for (long long s = 3; s >= 0; --s) {
      for (int l = 3; l >= 0; --l) {
        arbiter.unpin(l, 3, s);
        arbiter.unpin(l, static_cast<int>((s + l + round) % 8), s);
      }
    }
    return blocked;
  };
  for (int round = 0; round < 8; ++round) (void)churn(round);  // warm
  const long long before = allocs();
  int blocked = 0;
  for (int round = 0; round < 8; ++round) blocked += churn(round);
  EXPECT_EQ(allocs() - before, 0);
  EXPECT_GT(blocked, 0);
  EXPECT_EQ(arbiter.total_pin_count(), 0);
}

TEST(SessionAlloc, CachePlanWithoutSwapIsAllocationFreeOnceWarm) {
  const Rig rig;
  cache::ExpertCacheOptions opt;
  opt.policy = cache::CachePolicy::kLfu;
  cache::ExpertCache ecache(opt, rig.cfg.n_layers, rig.cfg.n_experts);
  cache::PlacementArbiter arbiter(rig.placement);
  // Only GPU residents run, so every CPU candidate is colder than every
  // victim and no scan plans a swap; one foreign pin makes the arbiter
  // filter victims too.
  for (int l = 0; l < rig.cfg.n_layers; ++l) {
    for (int e = 0; e < rig.cfg.n_experts; ++e) {
      if (rig.placement.on_gpu(l, e)) ecache.note_use(l, e, 1, 0.5);
    }
  }
  arbiter.pin(0, 0, 2);
  EXPECT_TRUE(ecache.plan(arbiter.placement(), &arbiter, 1).empty());  // warm
  const long long before = allocs();
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(ecache.plan(arbiter.placement(), &arbiter, 1).empty());
  }
  EXPECT_EQ(allocs() - before, 0);
  // A scan that does plan a swap writes it to cache scratch: make one CPU
  // expert per layer the hottest, and every scan plans the same swaps.
  for (int l = 0; l < rig.cfg.n_layers; ++l) {
    for (int e = 0; e < rig.cfg.n_experts; ++e) {
      if (rig.placement.on_gpu(l, e)) continue;
      for (int k = 0; k < 4; ++k) ecache.note_use(l, e, 1, 1.0);
      break;
    }
  }
  EXPECT_FALSE(ecache.plan(arbiter.placement(), &arbiter, 1).empty());  // warm
  const long long before_swaps = allocs();
  std::size_t planned = 0;
  for (int i = 0; i < 16; ++i) {
    planned += ecache.plan(arbiter.placement(), &arbiter, 1).size();
  }
  EXPECT_EQ(allocs() - before_swaps, 0);
  EXPECT_EQ(planned, 16u * static_cast<std::size_t>(opt.max_swaps_per_step));
  arbiter.unpin(0, 0, 2);
}

// Sessions come and go: a closed session's arbiter count row returns to the
// pool and the next new session id claims it. After one warm-up batch,
// batches of fresh ids pin their working sets, plan, release and close
// without a single allocation.
TEST(SessionAlloc, ArbiterRowsAreReusedAcrossSessions) {
  const Rig rig;
  cache::ExpertCacheOptions opt;
  opt.policy = cache::CachePolicy::kLfu;
  cache::ExpertCache ecache(opt, rig.cfg.n_layers, rig.cfg.n_experts);
  cache::PlacementArbiter arbiter(rig.placement);
  const int n_layers = rig.cfg.n_layers;
  const int n_experts = rig.cfg.n_experts;
  const auto expert = [n_experts](long long s, int l) {
    return static_cast<int>((s + l) % n_experts);
  };
  std::size_t planned = 0;
  const auto batch = [&](long long first) {
    for (long long s = first; s < first + 4; ++s) {
      for (int l = 0; l < n_layers; ++l) {
        arbiter.pin(l, expert(s, l), s);
        ecache.note_use(l, expert(s, l), s, static_cast<double>(s));
      }
    }
    for (long long s = first; s < first + 4; ++s) {
      planned += ecache.plan(arbiter.placement(), &arbiter, s).size();
    }
    // Release one step's pins, then close with the rest still held.
    for (long long s = first; s < first + 4; ++s) {
      for (int l = 0; l < n_layers; l += 2) arbiter.unpin(l, expert(s, l), s);
    }
    for (long long s = first; s < first + 4; ++s) arbiter.unpin_session(s);
  };
  batch(0);  // warm: four count rows, the plan scratch
  const long long before = allocs();
  for (long long first = 4; first < 64; first += 4) batch(first);
  EXPECT_EQ(allocs() - before, 0);
  EXPECT_GT(planned, 0u) << "the scans must plan swaps too";
  EXPECT_EQ(arbiter.total_pin_count(), 0);
}

// A continuous-batching decode step: four DAOP sessions interleaved on one
// shared timeline, pinning through one arbiter and re-planned by one lfu
// cache. A first batch warms the shared state (the cache's plan scratch,
// the pooled session buffers); the budget is measured on a second batch
// over the same arbiter and cache. Steps whose cache scan
// plans a swap allocate (the plan itself, the ledger), so the budget covers
// every step whose scan planned none — the cache's fill, refusal and abort
// totals did not move.
TEST(SessionAlloc, SharedDecodeStepWithArbiterAndLfuCacheIsAllocationFree) {
  const Rig rig;
  const std::unique_ptr<Engine> engine =
      eval::make_engine(eval::EngineKind::Daop, rig.costs);
  cache::ExpertCacheOptions opt;
  opt.policy = cache::CachePolicy::kLfu;
  cache::ExpertCache ecache(opt, rig.cfg.n_layers, rig.cfg.n_experts);
  cache::PlacementArbiter arbiter(rig.placement);
  sim::Timeline tl;
  std::vector<data::SequenceTrace> traces;
  for (int i = 0; i < 8; ++i) traces.push_back(rig.gen.generate(10 + i, 32, 48));
  const auto planned = [&ecache] {
    return ecache.fills() + ecache.aborts() +
           static_cast<long long>(ecache.refusals().size());
  };
  struct Budget {
    long long quiet_steps = 0;
    long long quiet_allocs = 0;
  };
  const auto run_batch = [&](int first) {
    std::vector<std::unique_ptr<SequenceSession>> sessions;
    for (int i = first; i < first + 4; ++i) {
      SessionEnv env;
      env.timeline = &tl;
      env.start_time = tl.span();
      env.request_id = i;
      env.arbiter = &arbiter;
      env.cache = &ecache;
      env.shared = true;
      sessions.push_back(engine->open_session(
          traces[static_cast<std::size_t>(i)], arbiter.placement(), env));
      sessions.back()->prefill();
    }
    Budget b;
    for (bool any = true; any;) {
      any = false;
      for (const auto& s : sessions) {
        const bool warm = s->tokens_generated() >= kWarmupSteps;
        const long long planned_before = planned();
        const long long before = allocs();
        if (!s->decode_step()) continue;
        any = true;
        if (warm && planned() == planned_before) {
          ++b.quiet_steps;
          b.quiet_allocs += allocs() - before;
        }
      }
    }
    for (const auto& s : sessions) (void)s->close();
    return b;
  };
  (void)run_batch(0);  // warm: plan scratch, holder lists, session buffers
  const long long fills_before = ecache.fills();
  const Budget b = run_batch(4);
  EXPECT_GT(b.quiet_steps, 4 * (48 - kWarmupSteps) / 2);
  EXPECT_GT(ecache.fills(), fills_before)
      << "the cache must re-plan during the measured batch";
  EXPECT_EQ(b.quiet_allocs, 0);
  EXPECT_EQ(arbiter.total_pin_count(), 0);
}

TEST(SessionAlloc, TimeSeriesRecordingIntoExistingSeriesIsAllocationFree) {
  obs::TimeSeriesOptions opt;
  opt.window_s = 1.0;
  obs::TimeSeriesRecorder rec(opt, {"node0", "cluster"});
  const auto tick = [&rec](double t) {
    rec.add_total(rec.counter(0, "daop_hazard_stall_seconds_total",
                              "Simulated seconds lost to injected hazards."),
                  t * 0.5);
    rec.gauge_set(0, "daop_queue_depth",
                  "Request copies waiting in the node's admission queue.", t);
    rec.count(0, "daop_recovery_checkpoints_total",
              "Session snapshots durably written on the node.", 1.0);
  };
  tick(0.1);  // creates the series
  const long long before = allocs();
  for (int i = 2; i < 9; ++i) tick(0.1 * i);  // all inside window 0
  EXPECT_EQ(allocs() - before, 0);
  rec.finalize(1.0);
}

TEST(SessionAlloc, CheckpointIsExactlyOneAllocation) {
  const Rig rig;
  for (const eval::EngineKind kind :
       {eval::EngineKind::Daop, eval::EngineKind::Fiddler,
        eval::EngineKind::MoEInfinity}) {
    SCOPED_TRACE(eval::engine_kind_name(kind));
    const std::unique_ptr<Engine> engine = eval::make_engine(kind, rig.costs);
    // Private placement, then the same engine under a shared arbiter.
    cache::PlacementArbiter arbiter(rig.placement);
    for (cache::PlacementArbiter* arb : {static_cast<cache::PlacementArbiter*>(
                                              nullptr),
                                          &arbiter}) {
      SessionEnv env;
      env.arbiter = arb;
      env.request_id = 5;
      std::unique_ptr<SequenceSession> s =
          engine->open_session(rig.short_trace, rig.placement, env);
      s->prefill();
      for (int i = 0; i < 4; ++i) ASSERT_TRUE(s->decode_step());
      const long long before = allocs();
      const std::vector<std::uint8_t> blob = s->checkpoint();
      EXPECT_EQ(allocs() - before, 1);
      EXPECT_FALSE(blob.empty());
      EXPECT_LE(blob.size(), blob.capacity());
      // The reservation is tight: its only slack is the two fault-stream
      // cursors, which a session without a fault model does not write.
      EXPECT_LE(blob.capacity() - blob.size(), 2u * (5 * 8 + 1 + 8));
      (void)s->close();
    }
  }
}

}  // namespace
}  // namespace daop::engines
