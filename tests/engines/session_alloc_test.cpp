// Heap-allocation budget of the session hot path. Sessions borrow their
// routing trace instead of copying it, and engines keep their per-layer
// selection buffers as session scratch, so:
//  - opening a session costs a fixed number of allocations, independent of
//    how many tokens the trace holds, and so does DAOP's and Fiddler's
//    prefill (they read the trace's stored activation counts);
//  - a decode step on a private timeline with no tracer or profiler makes
//    no heap allocation at all once the session is warm.
// A counting global operator new makes every allocation in this binary
// visible; a regression that reintroduces a per-session trace copy or a
// per-layer vector fails here before it shows up as lost throughput.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "cache/calibration.hpp"
#include "core/daop_engine.hpp"
#include "data/trace_generator.hpp"
#include "engines/session.hpp"
#include "eval/speed.hpp"
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
  (void)s->close();
  return a;
}

// Prefill reads the trace's stored activation counts, so neither opening a
// session nor its prefill does work that grows with the prompt. The two
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
    if (kind == eval::EngineKind::Fiddler) {
      // Static placement, stored counts: nothing to allocate.
      EXPECT_EQ(s.prefill, 0);
    }
  }
}

// The budgets above are only meaningful if the counter sees allocations. A
// trace is a fixed handful of flat blocks, so a copy allocates the same
// number of times at any length.
TEST(SessionAlloc, CounterObservesTraceCopies) {
  const Rig rig;
  long long before = allocs();
  const data::SequenceTrace short_copy = rig.short_trace;
  const long long short_allocs = allocs() - before;
  before = allocs();
  const data::SequenceTrace long_copy = rig.long_trace;
  const long long long_allocs = allocs() - before;
  EXPECT_GT(short_allocs, 0);
  EXPECT_EQ(short_allocs, long_allocs);
  EXPECT_EQ(short_copy.gen_len, 32);
  EXPECT_EQ(long_copy.gen_len, 512);
}

}  // namespace
}  // namespace daop::engines
