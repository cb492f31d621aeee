// Checkpoint round-trip property harness (`daop-ckpt/2`).
//
// Three layers of guarantees, bottom-up:
//  - FRAME: seal/unseal round-trips byte-exactly; EVERY single-byte flip,
//    every truncation length, and any appended byte is rejected — torn
//    writes by the length field, bit corruption by the FNV-1a checksum.
//  - STORE: cadence triggers anchor per request, durability gates restores
//    (a write still in flight at the crash never restores), generations trim
//    and fall back oldest-last, and injected torn/corrupt writes are always
//    caught at scan time by unseal() alone.
//  - SESSION: checkpoint() is byte-stable, restoring a snapshot into a
//    fresh identical environment reproduces the snapshot byte-for-byte on
//    re-checkpoint (across engines x seeds x hazard scenarios), and every
//    single-byte corruption makes restore() reject while leaving the
//    session usable for the prefill-replay fallback.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "../testing/golden.hpp"
#include "../testing/helpers.hpp"
#include "../testing/snapshot.hpp"
#include "cache/arbiter.hpp"
#include "cache/calibration.hpp"
#include "cache/expert_cache.hpp"
#include "data/trace_generator.hpp"
#include "engines/run_metrics.hpp"
#include "engines/session.hpp"
#include "eval/speed.hpp"
#include "recovery/checkpoint_store.hpp"
#include "recovery/reconcile.hpp"
#include "recovery/snapshot.hpp"
#include "sim/fault_model.hpp"
#include "sim/timeline.hpp"
#include "sim/trace_export.hpp"

#ifndef DAOP_GOLDEN_DIR
#error "DAOP_GOLDEN_DIR must be defined by the build"
#endif

namespace daop::recovery {
namespace {

using testing::seal;

// ---------------------------------------------------------------------------
// Frame: seal/unseal

std::vector<std::uint8_t> varied_payload(std::size_t n) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>((i * 131 + 17) & 0xFF);
  }
  return p;
}

TEST(SnapshotFrame, SealUnsealRoundTrips) {
  const auto payload = varied_payload(237);
  const auto blob = seal(payload);
  ASSERT_GT(blob.size(), payload.size()) << "frame header missing";
  const auto back = unseal(blob);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
}

TEST(SnapshotFrame, EmptyPayloadRoundTrips) {
  const auto blob = seal({});
  const auto back = unseal(blob);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());
}

TEST(SnapshotFrame, EverySingleByteFlipIsRejected) {
  const auto blob = seal(varied_payload(199));
  for (std::size_t i = 0; i < blob.size(); ++i) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
      auto bad = blob;
      bad[i] ^= mask;
      EXPECT_FALSE(unseal(bad).has_value())
          << "byte " << i << " xor " << int(mask) << " accepted";
    }
  }
}

TEST(SnapshotFrame, EveryTruncationAndAnyExtensionIsRejected) {
  const auto blob = seal(varied_payload(64));
  for (std::size_t n = 0; n < blob.size(); ++n) {
    const std::vector<std::uint8_t> torn(blob.begin(),
                                         blob.begin() + static_cast<long>(n));
    EXPECT_FALSE(unseal(torn).has_value()) << "torn prefix of " << n;
  }
  auto grown = blob;
  grown.push_back(0);
  EXPECT_FALSE(unseal(grown).has_value()) << "trailing garbage accepted";
}

TEST(SnapshotFrame, ByteCodecRoundTripsAndReaderIsBoundsSafe) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFULL);
  w.i32(-7);
  w.i64(-1234567891234LL);
  w.f64(-0.4375);
  w.str("daop-ckpt");
  const auto buf = w.data();

  ByteReader r(buf.data(), buf.size());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i32(), -7);
  EXPECT_EQ(r.i64(), -1234567891234LL);
  EXPECT_EQ(r.f64(), -0.4375);
  EXPECT_EQ(r.str(), "daop-ckpt");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  // Reading past the end fails the stream instead of reading out of bounds.
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_FALSE(r.ok());
}

/// `p` as a snapshot carries it: write_placement, then read_placement.
cache::Placement round_trip(const cache::Placement& p) {
  ByteWriter w;
  write_placement(w, p);
  ByteReader r(w.data().data(), w.size());
  std::optional<cache::Placement> back = read_placement(r);
  EXPECT_TRUE(back.has_value());
  EXPECT_EQ(r.remaining(), 0u);
  return back.value_or(cache::Placement(1, 1));
}

TEST(SnapshotFrame, PlacementImageRoundTrips) {
  cache::Placement p(3, 4);
  p.set_capacity(0, 2);
  p.set_capacity(1, 1);
  p.set_capacity(2, 2);
  p.move_to_gpu(0, 0);
  p.move_to_gpu(0, 2);
  p.move_to_gpu(1, 3);
  p.move_to_gpu(2, 0);
  p.move_to_gpu(2, 1);
  const cache::Placement back = round_trip(p);
  EXPECT_EQ(back.n_layers(), 3);
  EXPECT_EQ(back.n_experts(), 4);
  std::vector<int> capacity;
  std::vector<int> on_gpu;
  for (int l = 0; l < 3; ++l) {
    capacity.push_back(back.capacity(l));
    for (int e = 0; e < 4; ++e) on_gpu.push_back(back.on_gpu(l, e) ? 1 : 0);
  }
  EXPECT_EQ(capacity, (std::vector<int>{2, 1, 2}));
  EXPECT_EQ(on_gpu, (std::vector<int>{1, 0, 1, 0, 0, 0, 0, 1, 1, 1, 0, 0}));

  // A layer claiming more residents than its capacity does not decode.
  ByteWriter w;
  write_placement(w, p);
  std::vector<std::uint8_t> bytes = w.data();
  bytes[8] = 1;  // layer 0 capacity 2 -> 1, with two residents
  ByteReader r(bytes.data(), bytes.size());
  EXPECT_FALSE(read_placement(r).has_value());
}

// ---------------------------------------------------------------------------
// Checkpoint hazards (sim::FaultModel presets)

TEST(CheckpointHazards, PresetsScaleWithIntensity) {
  const auto torn = sim::make_hazard_scenario("ckpt-torn", 0.8);
  EXPECT_DOUBLE_EQ(torn.ckpt_torn_write_prob, 0.4);
  EXPECT_DOUBLE_EQ(torn.ckpt_corrupt_prob, 0.0);
  const auto corrupt = sim::make_hazard_scenario("ckpt-corrupt", 0.8);
  EXPECT_DOUBLE_EQ(corrupt.ckpt_torn_write_prob, 0.0);
  EXPECT_DOUBLE_EQ(corrupt.ckpt_corrupt_prob, 0.2);
  const auto both = sim::make_hazard_scenario("ckpt", 1.0);
  EXPECT_DOUBLE_EQ(both.ckpt_torn_write_prob, 0.5);
  EXPECT_DOUBLE_EQ(both.ckpt_corrupt_prob, 0.25);
  // "all" predates the recovery plane and must never grow checkpoint
  // hazards (pre-cluster chaos goldens depend on it).
  const auto all = sim::make_hazard_scenario("all", 1.0);
  EXPECT_DOUBLE_EQ(all.ckpt_torn_write_prob, 0.0);
  EXPECT_DOUBLE_EQ(all.ckpt_corrupt_prob, 0.0);
}

TEST(CheckpointHazards, DrawSequenceIsDeterministicPerSeed) {
  const auto sc = sim::make_hazard_scenario("ckpt", 1.0);
  sim::FaultModel a(sc, 77);
  sim::FaultModel b(sc, 77);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.checkpoint_write_torn(), b.checkpoint_write_torn());
    EXPECT_EQ(a.checkpoint_corrupted(), b.checkpoint_corrupted());
    EXPECT_EQ(a.checkpoint_entropy(), b.checkpoint_entropy());
  }
}

// ---------------------------------------------------------------------------
// CheckpointStore

CheckpointOptions store_options(int every_steps, double every_s = 0.0) {
  CheckpointOptions o;
  o.every_steps = every_steps;
  o.every_s = every_s;
  o.keep_generations = 2;
  return o;
}

TEST(CheckpointStore, DisabledIsNeverDue) {
  sim::Timeline tl;
  EXPECT_FALSE(store_options(0, 0.0).enabled());
  CheckpointStore st(store_options(0, 0.0), &tl, nullptr);
  EXPECT_FALSE(st.due(1, 1000, 99.0));
}

TEST(CheckpointStore, StepCadenceCountsFromTheLastWrite) {
  sim::Timeline tl;
  CheckpointStore st(store_options(4), &tl, nullptr);
  EXPECT_FALSE(st.due(7, 1, 0.1));
  EXPECT_FALSE(st.due(7, 3, 0.3));
  EXPECT_TRUE(st.due(7, 4, 0.4));
  st.write(7, 4, 0.4, seal(varied_payload(32)));
  EXPECT_FALSE(st.due(7, 6, 0.6)) << "cadence must reset at the write";
  EXPECT_TRUE(st.due(7, 8, 0.8));
}

TEST(CheckpointStore, TimeCadenceAnchorsAtFirstSighting) {
  sim::Timeline tl;
  CheckpointStore st(store_options(0, 1.0), &tl, nullptr);
  // First sighting at t=5 anchors the trigger there — NOT at t=0, so a
  // session admitted late is not immediately due.
  EXPECT_FALSE(st.due(3, 1, 5.0));
  EXPECT_FALSE(st.due(3, 2, 5.9));
  EXPECT_TRUE(st.due(3, 3, 6.0));
}

TEST(CheckpointStore, WritesAreDurableOnlyAfterTheSimulatedWriteLands) {
  sim::Timeline tl;
  CheckpointStore st(store_options(1), &tl, nullptr);
  const double durable = st.write(9, 5, 1.0, seal(varied_payload(4096)));
  EXPECT_GT(durable, 1.0) << "durable write must cost simulated time";
  EXPECT_EQ(st.latest_valid(9, 1.0), nullptr) << "still in flight";
  const CheckpointRecord* rec = st.latest_valid(9, durable);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->step, 5);
  EXPECT_EQ(st.stats().writes, 1);
  EXPECT_GT(st.stats().bytes_written, 4096);
}

TEST(CheckpointStore, KeepsOnlyTheConfiguredGenerations) {
  sim::Timeline tl;
  CheckpointStore st(store_options(1), &tl, nullptr);
  for (int s = 1; s <= 5; ++s) {
    st.write(2, s, static_cast<double>(s), seal(varied_payload(64)));
  }
  const auto* gens = st.generations(2);
  ASSERT_NE(gens, nullptr);
  ASSERT_EQ(gens->size(), 2u);
  EXPECT_EQ(gens->front().step, 4);
  EXPECT_EQ(gens->back().step, 5);
  st.drop(2);
  EXPECT_EQ(st.generations(2), nullptr);
  EXPECT_EQ(st.latest_valid(2, 100.0), nullptr);
}

TEST(CheckpointStore, CertainTornWritesNeverRestoreAndAreCounted) {
  sim::Timeline tl;
  sim::HazardScenario sc;
  sc.ckpt_torn_write_prob = 1.0;
  sim::FaultModel fm(sc, 5);
  CheckpointStore st(store_options(1), &tl, &fm);
  for (int s = 1; s <= 3; ++s) {
    st.write(4, s, static_cast<double>(s), seal(varied_payload(256)));
  }
  EXPECT_EQ(st.stats().torn_writes, 3);
  EXPECT_EQ(st.latest_valid(4, 100.0), nullptr);
  EXPECT_EQ(st.stats().torn_rejected, 2)
      << "both retained generations must be scanned and rejected";
}

TEST(CheckpointStore, CertainCorruptionIsRejectedByTheChecksum) {
  sim::Timeline tl;
  sim::HazardScenario sc;
  sc.ckpt_corrupt_prob = 1.0;
  sim::FaultModel fm(sc, 5);
  CheckpointStore st(store_options(1), &tl, &fm);
  st.write(4, 1, 1.0, seal(varied_payload(256)));
  EXPECT_EQ(st.stats().corrupt_writes, 1);
  const auto* gens = st.generations(4);
  ASSERT_NE(gens, nullptr);
  EXPECT_TRUE(gens->front().corrupted);
  EXPECT_EQ(st.latest_valid(4, 100.0), nullptr);
  EXPECT_EQ(st.stats().torn_rejected, 1);
}

TEST(CheckpointStore, FallsBackGenerationByGenerationUsingUnsealOnly) {
  // Mixed torn/valid writes from a deterministic hazard stream: latest_valid
  // must agree with the per-record fault bookkeeping while trusting ONLY
  // unseal() — the newest un-torn generation wins and every torn generation
  // newer than it is counted as rejected.
  // Scan seeds for the interesting draw pattern (newest generation torn,
  // an older one intact) instead of hard-coding one — robust to any future
  // change in the fault stream derivation.
  bool exercised = false;
  for (std::uint64_t seed = 1; seed <= 64 && !exercised; ++seed) {
    sim::Timeline tl;
    sim::HazardScenario sc;
    sc.ckpt_torn_write_prob = 0.5;
    sim::FaultModel fm(sc, seed);
    CheckpointOptions opt = store_options(1);
    opt.keep_generations = 8;
    CheckpointStore st(opt, &tl, &fm);
    for (int s = 1; s <= 8; ++s) {
      st.write(6, s, static_cast<double>(s), seal(varied_payload(512)));
    }
    const auto* gens = st.generations(6);
    ASSERT_NE(gens, nullptr);
    ASSERT_EQ(gens->size(), 8u);
    long long expect_step = -1;
    long long newer_torn = 0;
    for (auto it = gens->rbegin(); it != gens->rend(); ++it) {
      if (!it->torn) {
        expect_step = it->step;
        break;
      }
      ++newer_torn;
    }
    if (newer_torn == 0 || expect_step == -1) continue;  // dull pattern
    exercised = true;
    const CheckpointRecord* rec = st.latest_valid(6, 100.0);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->step, expect_step);
    EXPECT_EQ(st.stats().torn_rejected, newer_torn);
  }
  EXPECT_TRUE(exercised)
      << "no seed in 1..64 tore the newest generation while leaving an "
         "older one intact (astronomically unlikely unless the stream broke)";
}

TEST(CheckpointStore, DiscardInFlightModelsCrashConsistency) {
  sim::Timeline tl;
  CheckpointStore st(store_options(1), &tl, nullptr);
  const double d1 = st.write(8, 1, 0.0, seal(varied_payload(64)));
  // Second write issued later; still in flight at the crash instant.
  const double d2 = st.write(8, 2, d1, seal(varied_payload(64)));
  ASSERT_GT(d2, d1);
  const double crash = (d1 + d2) / 2.0;
  st.discard_in_flight(crash);
  EXPECT_EQ(st.stats().torn_writes, 1) << "in-flight write died with the node";
  const CheckpointRecord* rec = st.latest_valid(8, crash);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->step, 1) << "only the durable generation survives";
}

// ---------------------------------------------------------------------------
// Placement reconciliation

TEST(Reconcile, CaptureAndApplyRoundTripAPlacement) {
  cache::Placement p(2, 4);
  p.set_capacity(0, 2);
  p.set_capacity(1, 1);
  p.move_to_gpu(0, 1);
  p.move_to_gpu(0, 3);
  p.move_to_gpu(1, 2);
  const cache::Placement q = round_trip(p);
  ASSERT_EQ(q.n_layers(), 2);
  ASSERT_EQ(q.n_experts(), 4);
  for (int l = 0; l < 2; ++l) {
    EXPECT_EQ(q.capacity(l), p.capacity(l));
    EXPECT_EQ(q.gpu_count(l), p.gpu_count(l));
    for (int e = 0; e < 4; ++e) EXPECT_EQ(q.on_gpu(l, e), p.on_gpu(l, e));
  }
}

TEST(Reconcile, MigratesEvictsAndPublishesWeightGates) {
  cache::Placement p(2, 4);
  for (int l = 0; l < 2; ++l) {
    p.set_capacity(l, 2);
    p.move_to_gpu(l, 0);
    p.move_to_gpu(l, 1);
  }
  cache::PlacementArbiter arb(p);
  cache::Placement want(2, 4);
  for (int l = 0; l < 2; ++l) {
    want.set_capacity(l, 2);
    want.move_to_gpu(l, 2);
    want.move_to_gpu(l, 3);
  }
  sim::Timeline tl;
  const ReconcileResult r =
      reconcile_placement(want, arb, tl, 1.0, 0.002, /*session=*/7);
  EXPECT_EQ(r.migrated, 4);
  EXPECT_EQ(r.evicted, 4);
  EXPECT_EQ(r.refused, 0);
  EXPECT_GT(r.ready, 1.0);
  for (int l = 0; l < 2; ++l) {
    EXPECT_TRUE(arb.placement().on_gpu(l, 2));
    EXPECT_TRUE(arb.placement().on_gpu(l, 3));
    EXPECT_FALSE(arb.placement().on_gpu(l, 0));
    EXPECT_GT(arb.weight_ready(l, 2), 1.0)
        << "migrated weights must publish their arrival";
  }
}

TEST(Reconcile, PinnedResidentsAreRefusedNotEvicted) {
  cache::Placement p(1, 4);
  p.set_capacity(0, 2);
  p.move_to_gpu(0, 0);
  p.move_to_gpu(0, 1);
  cache::PlacementArbiter arb(p);
  arb.pin(0, 0, /*session=*/99);  // a concurrent session computes with 0
  cache::Placement want(1, 4);
  want.set_capacity(0, 2);
  want.move_to_gpu(0, 2);
  want.move_to_gpu(0, 3);
  sim::Timeline tl;
  const ReconcileResult r =
      reconcile_placement(want, arb, tl, 0.0, 0.002, /*session=*/7);
  // Expert 1 evicts, expert 0 stays pinned; one wanted expert fits in the
  // freed slot, the other is refused (the restored session runs it from the
  // CPU like any refused migration).
  EXPECT_EQ(r.evicted, 1);
  EXPECT_EQ(r.migrated, 1);
  EXPECT_EQ(r.refused, 1);
  EXPECT_TRUE(arb.placement().on_gpu(0, 0));
  arb.unpin(0, 0, 99);
}

// ---------------------------------------------------------------------------
// Session snapshot round trip: engines x seeds x hazards

struct SessionFixture {
  model::ModelConfig cfg;
  sim::CostModel cm{sim::a6000_i9_platform()};
  model::OpCosts costs{cfg, cm};
  data::SequenceTrace trace;
  cache::Placement placement{1, 1};
  core::DaopConfig dcfg;

  explicit SessionFixture(std::uint64_t seed, int n_layers = 4)
      : cfg(daop::testing::small_mixtral(n_layers)) {
    const data::TraceGenerator gen(data::c4(), cfg.n_layers, cfg.n_experts,
                                   cfg.top_k, seed);
    trace = gen.generate(0, 20, 10);
    const data::TraceGenerator calib(data::sharegpt_calibration(),
                                     cfg.n_layers, cfg.n_experts, cfg.top_k,
                                     seed ^ 0xCA11Bu);
    placement = cache::init_placement_calibrated(
        cfg.n_layers, cfg.n_experts, 0.469,
        cache::calibrate_activation_counts(calib, 6));
    dcfg.min_predict_layer = 1;
  }
};

struct LiveSession {
  std::unique_ptr<engines::Engine> engine;
  std::unique_ptr<sim::FaultModel> fault;
  sim::Timeline tl;
  std::unique_ptr<engines::SequenceSession> session;
};

LiveSession open_live(const SessionFixture& fx, eval::EngineKind kind,
                      const sim::HazardScenario& hz, std::uint64_t seed) {
  LiveSession ls;
  ls.engine = eval::make_engine(kind, fx.costs, fx.dcfg);
  ls.fault = std::make_unique<sim::FaultModel>(hz, seed ^ 0xFA017ULL);
  if (ls.fault->enabled()) ls.engine->set_fault_model(ls.fault.get());
  engines::SessionEnv env;
  env.timeline = &ls.tl;
  env.request_id = 42;
  ls.session = ls.engine->open_session(fx.trace, fx.placement, env);
  return ls;
}

TEST(SessionSnapshot, RoundTripIsByteStableAcrossEnginesSeedsAndHazards) {
  const eval::EngineKind kinds[] = {eval::EngineKind::Daop,
                                    eval::EngineKind::Fiddler,
                                    eval::EngineKind::MoEInfinity};
  const std::uint64_t seeds[] = {7, 23};
  const sim::HazardScenario hazards[] = {
      sim::HazardScenario{}, sim::make_hazard_scenario("all", 0.5),
      sim::make_hazard_scenario("expert-load", 0.8)};
  for (const auto kind : kinds) {
    for (const auto seed : seeds) {
      const SessionFixture fx(seed);
      for (const auto& hz : hazards) {
        SCOPED_TRACE(std::string(eval::engine_kind_name(kind)) + " seed " +
                     std::to_string(seed));
        LiveSession a = open_live(fx, kind, hz, seed);
        a.session->prefill();
        for (int t = 0; t < 5; ++t) ASSERT_TRUE(a.session->decode_step());
        const std::vector<std::uint8_t> snap = a.session->checkpoint();
        ASSERT_FALSE(snap.empty()) << "engine must support checkpointing";
        EXPECT_EQ(a.session->checkpoint(), snap)
            << "checkpoint() must be pure (byte-stable)";

        // Header peek agrees with the session without needing one.
        const auto info = testing::peek(snap);
        ASSERT_TRUE(info.has_value());
        EXPECT_EQ(info->engine, a.engine->name());
        EXPECT_EQ(info->request_id, 42);
        EXPECT_EQ(info->step, 5);
        EXPECT_EQ(info->prompt_len, fx.trace.prompt_len);
        EXPECT_EQ(info->gen_len, fx.trace.gen_len);

        // Restoring into a FRESH identical environment reproduces the
        // snapshot byte-for-byte on re-checkpoint.
        LiveSession b = open_live(fx, kind, hz, seed);
        engines::RestoreOptions ro;
        ro.resume_floor = 0.0;
        ro.apply_rng_cursor = true;
        ASSERT_TRUE(b.session->restore(snap, ro));
        EXPECT_EQ(b.session->tokens_generated(), 5);
        EXPECT_EQ(b.session->checkpoint(), snap)
            << "restore must reconstruct the exact serialized state";

        // Both sessions continue to completion without tripping invariants.
        while (a.session->decode_step()) {
        }
        while (b.session->decode_step()) {
        }
        const engines::RunResult ra = a.session->close();
        const engines::RunResult rb = b.session->close();
        EXPECT_EQ(ra.generated_tokens, rb.generated_tokens);
      }
    }
  }
}

TEST(SessionSnapshot, EverySingleByteCorruptionIsRejectedAndSessionSurvives) {
  const eval::EngineKind kinds[] = {eval::EngineKind::Daop,
                                    eval::EngineKind::Fiddler,
                                    eval::EngineKind::MoEInfinity};
  for (const auto kind : kinds) {
    SCOPED_TRACE(eval::engine_kind_name(kind));
    const SessionFixture fx(7);
    const sim::HazardScenario calm;
    LiveSession a = open_live(fx, kind, calm, 7);
    a.session->prefill();
    for (int t = 0; t < 4; ++t) ASSERT_TRUE(a.session->decode_step());
    const std::vector<std::uint8_t> snap = a.session->checkpoint();
    ASSERT_FALSE(snap.empty());

    LiveSession b = open_live(fx, kind, calm, 7);
    engines::RestoreOptions ro;
    std::vector<std::uint8_t> bad = snap;
    for (std::size_t i = 0; i < snap.size(); ++i) {
      bad[i] ^= 0x01;
      EXPECT_FALSE(b.session->restore(bad, ro))
          << "corrupted byte " << i << " accepted";
      bad[i] = snap[i];
    }
    // After every rejection the session is untouched and the ordinary
    // prefill-replay fallback still works end to end.
    EXPECT_EQ(b.session->tokens_generated(), 0);
    b.session->prefill();
    while (b.session->decode_step()) {
    }
    const engines::RunResult r = b.session->close();
    EXPECT_EQ(r.generated_tokens, fx.trace.gen_len);
  }
}

TEST(SessionSnapshot, RestoreValidatesSessionIdentity) {
  const SessionFixture fx(7);
  const sim::HazardScenario calm;
  LiveSession a = open_live(fx, eval::EngineKind::Fiddler, calm, 7);
  a.session->prefill();
  ASSERT_TRUE(a.session->decode_step());
  const auto snap = a.session->checkpoint();
  ASSERT_FALSE(snap.empty());

  {
    // Wrong engine: a Fiddler snapshot cannot restore into a DAOP session.
    LiveSession b = open_live(fx, eval::EngineKind::Daop, calm, 7);
    EXPECT_FALSE(b.session->restore(snap, {}));
  }
  {
    // Wrong request id.
    LiveSession b;
    b.engine = eval::make_engine(eval::EngineKind::Fiddler, fx.costs, fx.dcfg);
    engines::SessionEnv env;
    env.timeline = &b.tl;
    env.request_id = 43;
    b.session = b.engine->open_session(fx.trace, fx.placement, env);
    EXPECT_FALSE(b.session->restore(snap, {}));
  }
}

TEST(SessionSnapshot, ResumeFloorShiftsTheRestoredFrontier) {
  const SessionFixture fx(23);
  const sim::HazardScenario calm;
  LiveSession a = open_live(fx, eval::EngineKind::Fiddler, calm, 23);
  a.session->prefill();
  for (int t = 0; t < 3; ++t) ASSERT_TRUE(a.session->decode_step());
  const double frontier = a.session->ready_time();
  const auto snap = a.session->checkpoint();
  ASSERT_FALSE(snap.empty());

  LiveSession b = open_live(fx, eval::EngineKind::Fiddler, calm, 23);
  engines::RestoreOptions ro;
  ro.resume_floor = frontier + 5.0;  // restore on a peer, later in time
  ASSERT_TRUE(b.session->restore(snap, ro));
  EXPECT_DOUBLE_EQ(b.session->ready_time(), frontier + 5.0);
  EXPECT_GE(b.session->start_time(), 5.0)
      << "session clock must shift with the frontier";
  while (b.session->decode_step()) {
  }
  const engines::RunResult r = b.session->close();
  EXPECT_EQ(r.generated_tokens, fx.trace.gen_len);
}

/// Payload offsets of a session snapshot's first pin and of its placement
/// image, found by decoding the fixed fields in front of them.
struct PayloadOffsets {
  std::size_t first_pin = 0;
  std::uint32_t n_pins = 0;
  std::size_t placement_image = 0;
};

PayloadOffsets payload_offsets(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload.data(), payload.size());
  r.str();  // engine
  r.i64();  // request id
  for (int i = 0; i < 4; ++i) r.i32();
  for (int i = 0; i < 4; ++i) r.f64();
  for (int i = 0; i < 20; ++i) r.u64();  // counters
  PayloadOffsets o;
  o.n_pins = r.u32();
  o.first_pin = payload.size() - r.remaining();
  o.placement_image = o.first_pin + 8 * std::size_t{o.n_pins};
  EXPECT_TRUE(r.ok());
  return o;
}

/// Re-seals `payload` with one byte changed: a forged blob that passes the
/// frame checksum, so only restore()'s own field validation can reject it.
std::vector<std::uint8_t> reseal_with(std::vector<std::uint8_t> payload,
                                      std::size_t at, std::uint8_t value) {
  payload.at(at) = value;
  return seal(payload);
}

// A private session takes the snapshot's placement only when its
// dimensions match the session's own. A snapshot of the same engine,
// request and sequence shape from a model with one layer more is rejected,
// and the session's placement is untouched: its replay run equals a fresh
// one.
TEST(Reconcile, ApplyRejectsMismatchedDimensionsUntouched) {
  const SessionFixture four(7);
  const SessionFixture three(7, 3);
  ASSERT_EQ(three.trace.prompt_len, four.trace.prompt_len);
  ASSERT_EQ(three.trace.gen_len, four.trace.gen_len);
  LiveSession a = open_live(four, eval::EngineKind::Fiddler, {}, 7);
  a.session->prefill();
  ASSERT_TRUE(a.session->decode_step());
  const std::vector<std::uint8_t> snap = a.session->checkpoint();

  LiveSession fresh = open_live(three, eval::EngineKind::Fiddler, {}, 7);
  fresh.session->prefill();
  while (fresh.session->decode_step()) {
  }
  const engines::RunResult want = fresh.session->close();

  LiveSession b = open_live(three, eval::EngineKind::Fiddler, {}, 7);
  EXPECT_FALSE(b.session->restore(snap, {}));
  b.session->prefill();
  while (b.session->decode_step()) {
  }
  const engines::RunResult got = b.session->close();
  EXPECT_EQ(got.total_s, want.total_s);
  EXPECT_EQ(got.energy.total_j, want.energy.total_j);
  EXPECT_EQ(engines::counter_profile_metrics(got.counters),
            engines::counter_profile_metrics(want.counters));
}

// Re-pinning the snapshot's working set happens past restore()'s point of
// no return, so a pin outside the model must be rejected before any state
// changes: the session stays fresh, prefill-replays to completion and
// leaves the arbiter with no pins.
TEST(SessionSnapshot, ForgedPinsAreRejectedUntouched) {
  const SessionFixture fx(7);
  cache::PlacementArbiter arbiter(fx.placement);
  sim::Timeline tl;
  const auto engine =
      eval::make_engine(eval::EngineKind::Daop, fx.costs, fx.dcfg);
  engines::SessionEnv env;
  env.timeline = &tl;
  env.request_id = 42;
  env.arbiter = &arbiter;
  env.shared = true;
  std::vector<std::uint8_t> payload;
  {
    const auto a = engine->open_session(fx.trace, arbiter.placement(), env);
    a->prefill();
    for (int t = 0; t < 3; ++t) ASSERT_TRUE(a->decode_step());
    payload = *unseal(a->checkpoint());
    while (a->decode_step()) {
    }
    (void)a->close();
  }
  ASSERT_EQ(arbiter.total_pin_count(), 0);
  const PayloadOffsets o = payload_offsets(payload);
  ASSERT_GT(o.n_pins, 0u) << "the snapshot must carry working-set pins";

  const std::vector<std::uint8_t> forged[] = {
      reseal_with(payload, o.first_pin, 99),  // layer 99 of 4
      reseal_with(payload, o.first_pin + 4, 99)};  // expert 99 of 8
  for (std::size_t i = 0; i < std::size(forged); ++i) {
    SCOPED_TRACE("forgery " + std::to_string(i));
    const auto b = engine->open_session(fx.trace, arbiter.placement(), env);
    EXPECT_FALSE(b->restore(forged[i], {}));
    EXPECT_EQ(b->tokens_generated(), 0);
    EXPECT_EQ(arbiter.total_pin_count(), 0);
    b->prefill();
    while (b->decode_step()) {
    }
    EXPECT_EQ(b->close().generated_tokens, fx.trace.gen_len);
    EXPECT_EQ(arbiter.total_pin_count(), 0);
  }
  EXPECT_TRUE(testing::peek(seal(payload)).has_value());
}

// Placement::set_capacity throws on a capacity outside [0, n_experts] and
// move_to_gpu on a layer over capacity, so the decoder must reject both:
// restore() returns false instead of throwing. A rejected restore leaves
// the private placement untouched, so the replay run equals an
// uninterrupted one.
TEST(SessionSnapshot, ForgedCapacityIsRejectedUntouched) {
  const SessionFixture fx(7);
  const sim::HazardScenario calm;
  LiveSession a = open_live(fx, eval::EngineKind::Daop, calm, 7);
  a.session->prefill();
  for (int t = 0; t < 3; ++t) ASSERT_TRUE(a.session->decode_step());
  const std::vector<std::uint8_t> payload = *unseal(a.session->checkpoint());
  while (a.session->decode_step()) {
  }
  const engines::RunResult want = a.session->close();

  // The image's first capacity follows its two i32 dimensions.
  const std::size_t cap0 = payload_offsets(payload).placement_image + 8;
  const auto above = static_cast<std::uint8_t>(fx.cfg.n_experts + 1);
  const std::vector<std::uint8_t> forged[] = {
      reseal_with(payload, cap0, above),      // n_experts + 1
      reseal_with(payload, cap0, 0xFF),       // 255 of 8
      reseal_with(payload, cap0 + 3, 0x80),   // negative
      reseal_with(payload, cap0, 0)};         // below its residents
  for (std::size_t i = 0; i < std::size(forged); ++i) {
    SCOPED_TRACE("forgery " + std::to_string(i));
    EXPECT_FALSE(testing::peek(forged[i]).has_value());
    LiveSession b = open_live(fx, eval::EngineKind::Daop, calm, 7);
    bool restored = true;
    EXPECT_NO_THROW(restored = b.session->restore(forged[i], {}));
    EXPECT_FALSE(restored);
    EXPECT_EQ(b.session->tokens_generated(), 0);
    b.session->prefill();
    while (b.session->decode_step()) {
    }
    const engines::RunResult got = b.session->close();
    EXPECT_EQ(got.generated_tokens, want.generated_tokens);
    EXPECT_EQ(got.total_s, want.total_s);
    EXPECT_EQ(got.energy.total_j, want.energy.total_j);
  }
}

/// Byte length of a snapshot payload's policy block, read from its length
/// field by walking the fields in front of it.
std::uint32_t policy_block_bytes(const std::vector<std::uint8_t>& sealed) {
  const std::vector<std::uint8_t> payload = *unseal(sealed);
  const PayloadOffsets o = payload_offsets(payload);
  ByteReader r(payload.data() + o.placement_image,
               payload.size() - o.placement_image);
  EXPECT_TRUE(read_placement(r).has_value());
  if (r.u8() != 0) {
    for (int i = 0; i < 2 * (5 * 8 + 1 + 8); ++i) r.u8();  // cursors
  }
  const std::uint32_t len = r.u32();
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(len, r.remaining());
  return len;
}

/// What one private run leaves behind: its result, its timeline's Chrome
/// trace and its span records.
struct TracedRun {
  engines::RunResult result;
  std::string chrome;
  std::vector<std::string> spans;
  std::vector<std::string> flows;
};

/// Renders each span and flow as text, leaving out the "warm restart"
/// instant a restore records (the only span an uninterrupted run lacks).
/// Flows name their endpoints by position among the kept spans.
void record_spans(const obs::SpanTracer& tr, TracedRun& out) {
  std::vector<long long> kept_index(tr.spans().size() + 1, -1);
  for (const obs::TraceSpan& sp : tr.spans()) {
    if (sp.name.rfind("warm restart", 0) == 0) continue;
    kept_index[sp.id] = static_cast<long long>(out.spans.size());
    std::ostringstream os;
    os.precision(17);
    os << tr.tracks()[sp.track] << "|" << sp.name << "|" << sp.start << "|"
       << sp.end << "|" << sp.request;
    out.spans.push_back(os.str());
  }
  for (const obs::TraceFlow& f : tr.flows()) {
    out.flows.push_back(std::to_string(kept_index[f.from]) + "->" +
                        std::to_string(kept_index[f.to]) + " " + f.name);
  }
}

/// Runs a private session to completion; when `crash_step` > 0 the first
/// session dies there without close() and a fresh one on the same
/// environment restores its snapshot and finishes the run.
TracedRun realloc_run(const SessionFixture& fx, int crash_step,
                      std::uint32_t* crash_policy_bytes = nullptr) {
  const auto engine =
      eval::make_engine(eval::EngineKind::Daop, fx.costs, fx.dcfg);
  obs::SpanTracer tracer;
  engine->set_tracer(&tracer);
  sim::Timeline tl;
  tl.set_record_intervals(true);
  engines::SessionEnv env;
  env.timeline = &tl;
  env.request_id = 42;
  auto s = engine->open_session(fx.trace, fx.placement, env);
  s->prefill();
  if (crash_step > 0) {
    for (int t = 0; t < crash_step; ++t) EXPECT_TRUE(s->decode_step());
    const std::vector<std::uint8_t> snap = s->checkpoint();
    if (crash_policy_bytes != nullptr) {
      *crash_policy_bytes = policy_block_bytes(snap);
    }
    s = engine->open_session(fx.trace, fx.placement, env);
    EXPECT_TRUE(s->restore(snap, {}));
  }
  while (s->decode_step()) {
  }
  TracedRun out;
  out.result = s->close();
  out.chrome = sim::to_chrome_trace_json(tl);
  record_spans(tracer, out);
  return out;
}

// With decode re-allocation on, the window and the swap-arrival gates are
// policy state: a snapshot taken after a decode swap has set a gate must
// carry them, and the restored run must finish exactly as the
// uninterrupted one.
TEST(SessionSnapshot, DecodeReallocStateRestoresBitIdentically) {
  SessionFixture fx(7);
  fx.dcfg.decode_realloc_interval = 2;
  const TracedRun golden = realloc_run(fx, 0);
  ASSERT_GT(golden.result.counters.decode_swaps, 0)
      << "the fixture must swap during decode";

  // Snapshot at every step from the first decode swap on: right after a
  // swap its gate may still hold the next token back, and between swaps the
  // window (which each re-allocation clears) holds activations.
  int swap_step = 0;
  {
    LiveSession ls = open_live(fx, eval::EngineKind::Daop, {}, 7);
    ls.session->prefill();
    while (ls.session->counters().decode_swaps == 0) {
      ASSERT_TRUE(ls.session->decode_step());
      ++swap_step;
    }
    ASSERT_LT(swap_step + 1, fx.trace.gen_len);
  }
  const std::size_t cells =
      static_cast<std::size_t>(fx.cfg.n_layers) * fx.cfg.n_experts;
  for (int crash_step = swap_step; crash_step < fx.trace.gen_len;
       ++crash_step) {
    SCOPED_TRACE("snapshot at decode step " + std::to_string(crash_step));
    std::uint32_t block = 0;
    const TracedRun restored = realloc_run(fx, crash_step, &block);
    EXPECT_EQ(block, 8 + 16 * cells) << "header, gates and window";
    const engines::RunResult& g = golden.result;
    const engines::RunResult& r = restored.result;
    EXPECT_EQ(r.generated_tokens, g.generated_tokens);
    EXPECT_EQ(r.prefill_s, g.prefill_s);
    EXPECT_EQ(r.decode_s, g.decode_s);
    EXPECT_EQ(r.total_s, g.total_s);
    EXPECT_EQ(r.energy.total_j, g.energy.total_j);
    EXPECT_EQ(r.tokens_per_kj, g.tokens_per_kj);
    EXPECT_EQ(engines::counter_profile_metrics(r.counters),
              engines::counter_profile_metrics(g.counters));
    EXPECT_EQ(restored.chrome, golden.chrome);
    EXPECT_EQ(restored.spans, golden.spans);
    EXPECT_EQ(restored.flows, golden.flows);
  }
}

// Without decode re-allocation the block is the 8-byte (L, E) header:
// default DAOP, Fiddler, and a shared DAOP session (which never
// re-allocates, whatever its config says).
TEST(SessionSnapshot, PolicyBlockIsTheHeaderWhenReallocationCannotRun) {
  SessionFixture fx(7);
  for (const eval::EngineKind kind :
       {eval::EngineKind::Daop, eval::EngineKind::Fiddler}) {
    SCOPED_TRACE(eval::engine_kind_name(kind));
    LiveSession ls = open_live(fx, kind, {}, 7);
    ls.session->prefill();
    for (int t = 0; t < 4; ++t) ASSERT_TRUE(ls.session->decode_step());
    EXPECT_EQ(policy_block_bytes(ls.session->checkpoint()), 8u);
  }
  fx.dcfg.decode_realloc_interval = 2;
  cache::PlacementArbiter arbiter(fx.placement);
  sim::Timeline tl;
  const auto engine =
      eval::make_engine(eval::EngineKind::Daop, fx.costs, fx.dcfg);
  engines::SessionEnv env;
  env.timeline = &tl;
  env.request_id = 42;
  env.arbiter = &arbiter;
  env.shared = true;
  const auto s = engine->open_session(fx.trace, arbiter.placement(), env);
  s->prefill();
  for (int t = 0; t < 4; ++t) ASSERT_TRUE(s->decode_step());
  EXPECT_EQ(policy_block_bytes(s->checkpoint()), 8u);
  while (s->decode_step()) {
  }
  EXPECT_EQ(s->close().counters.decode_swaps, 0);
}

// ---------------------------------------------------------------------------
// Golden digests of the `daop-ckpt/2` bytes themselves. The round-trip tests
// above only prove that an encoder agrees with its own decoder; this pins
// the wire format: DAOP sessions on a private placement (calm; under
// hazards, so the fault-stream cursor is written; with decode re-allocation
// on, so the window and swap gates are written) and three DAOP sessions
// interleaved on one shared timeline under a PlacementArbiter with an lfu
// cache (pins and a placement that moves mid-decode), each checkpointed
// every 4th decode step. Regenerate (only after an INTENTIONAL format
// change, together with kSnapshotVersion) with:
//   DAOP_UPDATE_GOLDENS=1 ./recovery_snapshot_test

/// One line per checkpoint: request, step, blob size, FNV-1a of the bytes.
void append_digest(std::ostringstream& os, const engines::SequenceSession& s) {
  const std::vector<std::uint8_t> blob = s.checkpoint();
  os << "req " << s.request_id() << " step " << s.tokens_generated()
     << " bytes " << blob.size() << " fnv1a "
     << daop::testing::fnv1a_hex(std::string(blob.begin(), blob.end()))
     << "\n";
}

std::string private_digests(std::uint64_t seed, const char* hazard,
                            int realloc_interval = 0) {
  SessionFixture fx(seed);
  fx.dcfg.decode_realloc_interval = realloc_interval;
  const sim::HazardScenario hz =
      hazard[0] == '\0' ? sim::HazardScenario{}
                        : sim::make_hazard_scenario(hazard, 0.8);
  LiveSession ls = open_live(fx, eval::EngineKind::Daop, hz, seed);
  std::ostringstream os;
  os << "[private | seed " << seed << " | hazard "
     << (hazard[0] == '\0' ? "none" : hazard);
  if (realloc_interval > 0) os << " | decode realloc " << realloc_interval;
  os << "]\n";
  ls.session->prefill();
  while (ls.session->decode_step()) {
    if (ls.session->tokens_generated() % 4 == 0 &&
        !ls.session->decode_done()) {
      append_digest(os, *ls.session);
    }
  }
  (void)ls.session->close();
  return os.str();
}

std::string shared_digests(std::uint64_t seed) {
  const SessionFixture fx(seed);
  cache::ExpertCacheOptions copt;
  copt.policy = cache::CachePolicy::kLfu;
  copt.realloc_interval = 2;
  cache::ExpertCache ecache(copt, fx.cfg.n_layers, fx.cfg.n_experts);
  cache::PlacementArbiter arbiter(fx.placement);
  sim::Timeline tl;
  const std::unique_ptr<engines::Engine> engine =
      eval::make_engine(eval::EngineKind::Daop, fx.costs, fx.dcfg);
  const data::TraceGenerator gen(data::c4(), fx.cfg.n_layers,
                                 fx.cfg.n_experts, fx.cfg.top_k, seed + 1);
  std::vector<data::SequenceTrace> traces;
  for (int i = 0; i < 3; ++i) traces.push_back(gen.generate(i, 16 + 4 * i, 12));
  std::vector<std::unique_ptr<engines::SequenceSession>> sessions;
  for (int i = 0; i < 3; ++i) {
    engines::SessionEnv env;
    env.timeline = &tl;
    env.request_id = 100 + i;
    env.arbiter = &arbiter;
    env.cache = &ecache;
    env.shared = true;
    sessions.push_back(
        engine->open_session(traces[static_cast<std::size_t>(i)],
                             arbiter.placement(), env));
    sessions.back()->prefill();
  }
  std::ostringstream os;
  os << "[shared arbiter + lfu | seed " << seed << "]\n";
  for (bool any = true; any;) {
    any = false;
    for (const auto& s : sessions) {
      if (!s->decode_step()) continue;
      any = true;
      if (s->tokens_generated() % 4 == 0 && !s->decode_done()) {
        append_digest(os, *s);
      }
    }
  }
  os << "swaps " << ecache.fills() << " refusals " << ecache.refusals().size()
     << "\n";
  for (const auto& s : sessions) (void)s->close();
  EXPECT_EQ(arbiter.total_pin_count(), 0);
  return os.str();
}

TEST(SessionSnapshot, CheckpointBytesMatchGoldenDigests) {
  std::string actual;
  for (const std::uint64_t seed : {7, 23}) {
    actual += private_digests(seed, "");
    actual += private_digests(seed, "all");
    actual += private_digests(seed, "", /*realloc_interval=*/2);
    actual += shared_digests(seed);
  }
  daop::testing::expect_matches_golden(DAOP_GOLDEN_DIR "/checkpoint_blobs.golden",
                                       actual);
}

}  // namespace
}  // namespace daop::recovery
