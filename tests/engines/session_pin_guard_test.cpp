// RAII pin guard: a SequenceSession destroyed without close() — crashed
// node teardown, exception unwind, scheduler bug — must release every
// arbiter pin it holds, and abandon() must do the same for cancelled hedge
// copies. A leaked pin would freeze the shared expert cache for every
// other session forever.
#include "engines/session.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "../testing/helpers.hpp"
#include "cache/arbiter.hpp"
#include "cache/calibration.hpp"
#include "common/check.hpp"
#include "data/trace_generator.hpp"
#include "eval/speed.hpp"
#include "sim/timeline.hpp"

namespace daop::engines {
namespace {

// Sessions borrow their trace: open_session accepts lvalues only, so a
// temporary that would dangle is rejected at compile time.
template <class T>
concept OpensSessionFrom = requires(Engine& e, T&& trace,
                                    const cache::Placement& p,
                                    const SessionEnv& env) {
  e.open_session(std::forward<T>(trace), p, env);
};
static_assert(OpensSessionFrom<data::SequenceTrace&>);
static_assert(OpensSessionFrom<const data::SequenceTrace&>);
static_assert(!OpensSessionFrom<data::SequenceTrace>);
static_assert(!OpensSessionFrom<const data::SequenceTrace>);

struct SessionRig {
  model::ModelConfig cfg = daop::testing::small_mixtral();
  sim::CostModel cm{sim::a6000_i9_platform()};
  model::OpCosts costs{cfg, cm};
  std::unique_ptr<Engine> engine =
      eval::make_engine(eval::EngineKind::Fiddler, costs);
  cache::PlacementArbiter arbiter;
  sim::Timeline tl;
  /// Sessions borrow their trace, so it lives as long as the rig.
  data::SequenceTrace trace = daop::testing::fixed_trace(cfg, 8, 4, {0, 1});

  SessionRig()
      : arbiter([this] {
          const data::TraceGenerator calib(data::sharegpt_calibration(),
                                           cfg.n_layers, cfg.n_experts,
                                           cfg.top_k, 99);
          return cache::init_placement_calibrated(
              cfg.n_layers, cfg.n_experts, 0.469,
              cache::calibrate_activation_counts(calib, 4));
        }()) {}

  std::unique_ptr<SequenceSession> open(long long id,
                                        int replay_tokens = 0) {
    SessionEnv env;
    env.timeline = &tl;
    env.arbiter = &arbiter;
    env.shared = true;
    env.request_id = id;
    env.failover_replay_tokens = replay_tokens;
    return engine->open_session(trace, arbiter.placement(), env);
  }
};

TEST(SessionPinGuard, DestructionWithoutCloseReleasesAllPins) {
  SessionRig rig;
  auto s = rig.open(7);
  s->prefill();
  ASSERT_TRUE(s->decode_step());
  ASSERT_GT(rig.arbiter.total_pin_count(), 0)
      << "mid-decode the session must hold working-set pins";
  s.reset();  // no close(): crashed-node teardown path
  EXPECT_EQ(rig.arbiter.total_pin_count(), 0);
}

TEST(SessionPinGuard, NormalCloseStillReleasesAndGuardStaysIdle) {
  SessionRig rig;
  auto s = rig.open(8);
  s->prefill();
  while (s->decode_step()) {
  }
  (void)s->close();
  EXPECT_EQ(rig.arbiter.total_pin_count(), 0);
  s.reset();  // guard after close(): must not double-release or throw
  EXPECT_EQ(rig.arbiter.total_pin_count(), 0);
}

TEST(SessionPinGuard, AbandonReleasesPinsAndClosesForGood) {
  SessionRig rig;
  auto s = rig.open(9);
  s->prefill();
  ASSERT_TRUE(s->decode_step());
  ASSERT_GT(rig.arbiter.total_pin_count(), 0);
  s->abandon(s->ready_time());  // cancelled hedge copy
  EXPECT_EQ(rig.arbiter.total_pin_count(), 0);
  EXPECT_THROW((void)s->close(), CheckError) << "abandon excludes close";
  EXPECT_THROW((void)s->decode_step(), CheckError);
}

TEST(SessionPinGuard, AbandonBeforePrefillIsRejected) {
  SessionRig rig;
  auto s = rig.open(10);
  EXPECT_THROW(s->abandon(0.0), CheckError);
}

TEST(SessionPinGuard, FailoverReplayTokensAreObservationalOnly) {
  SessionRig rig;
  auto plain = rig.open(11);
  plain->prefill();
  while (plain->decode_step()) {
  }
  const RunResult a = plain->close();

  SessionRig rig2;
  auto replayed = rig2.open(11, /*replay_tokens=*/37);
  EXPECT_EQ(replayed->failover_replay_tokens(), 37);
  replayed->prefill();
  while (replayed->decode_step()) {
  }
  const RunResult b = replayed->close();
  // Purely observational: the replay count never changes scheduling.
  EXPECT_EQ(a.total_s, b.total_s);
  EXPECT_EQ(a.prefill_s, b.prefill_s);
  EXPECT_EQ(a.generated_tokens, b.generated_tokens);
}

}  // namespace
}  // namespace daop::engines
