// Heap-allocation budget of the session hot path. Sessions borrow their
// routing trace instead of copying it, and engines keep their per-layer
// selection buffers as session scratch, so:
//  - opening a session costs a fixed number of allocations, independent of
//    how many tokens the trace holds;
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

#include "cache/calibration.hpp"
#include "data/trace_generator.hpp"
#include "engines/session.hpp"
#include "eval/speed.hpp"

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
  (void)s->close();
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

// The budget above is only meaningful if the counter sees allocations.
TEST(SessionAlloc, CounterObservesTraceCopies) {
  const Rig rig;
  const long long before = allocs();
  const data::SequenceTrace copy = rig.short_trace;
  EXPECT_GT(allocs() - before,
            static_cast<long long>(rig.cfg.n_layers) * (64 + 32));
  EXPECT_EQ(copy.gen_len, 32);
}

}  // namespace
}  // namespace daop::engines
