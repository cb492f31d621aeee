// Seeded mutational fuzz driver for the parsers of external bytes on the
// recovery path: sealed session snapshots (recovery::unseal,
// SequenceSession::restore and peek) and the daop-trace text format
// (data::load_trace).
//
// Seeds are real mid-decode snapshots from DAOP, Fiddler and MoE-Infinity,
// each on a private placement and on a shared arbiter, calm and under
// hazards. Every mutant applies one to four mutations (bit flip, byte set,
// truncation, extension). Mutated payloads are re-sealed so they pass the
// frame checksum and reach restore()'s field validation; mutated raw blobs
// go to unseal() itself. Properties:
//  - nothing throws or crashes (the sanitizer build turns any out-of-bounds
//    read or undefined behaviour into a failure);
//  - unseal() accepts a blob only when it is the original;
//  - a restore() that accepts implies a peek() that accepts;
//  - after a rejected restore() the same session prefills and decodes to
//    completion, and the arbiter ends with no pins;
//  - an accepted restore() decodes to completion and releases its pins;
//  - load_trace() either returns a trace that saves and reloads unchanged
//    in shape, or rejects with CheckError.
// The generator seed and the mutant counts are fixed, so the run is
// deterministic and its cost bounded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "../testing/helpers.hpp"
#include "cache/arbiter.hpp"
#include "cache/calibration.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "data/trace_generator.hpp"
#include "data/trace_io.hpp"
#include "engines/session.hpp"
#include "eval/speed.hpp"
#include "recovery/snapshot.hpp"
#include "sim/fault_model.hpp"
#include "sim/timeline.hpp"

namespace daop::recovery {
namespace {

constexpr int kSnapshotMutantsPerSeed = 1000;
constexpr int kRawMutantsPerSeed = 64;
constexpr int kTraceMutants = 1500;
constexpr std::uint64_t kFuzzSeed = 0xF022D41FULL;

/// Applies one to four random mutations to `b`.
std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> b, Rng& rng,
                                 const std::vector<std::uint8_t>& dict) {
  const int n_ops = rng.uniform_int(1, 4);
  for (int op = 0; op < n_ops; ++op) {
    const int n = static_cast<int>(b.size());
    switch (rng.uniform_int(0, 3)) {
      case 0:  // bit flip
        if (n > 0) {
          b[static_cast<std::size_t>(rng.uniform_int(0, n - 1))] ^=
              static_cast<std::uint8_t>(1U << rng.uniform_int(0, 7));
        }
        break;
      case 1:  // byte set: a dictionary value or a random one
        if (n > 0) {
          const auto at = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
          b[at] = rng.uniform() < 0.5
                      ? dict[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<int>(dict.size()) - 1))]
                      : static_cast<std::uint8_t>(rng.next_u64());
        }
        break;
      case 2:  // truncation, usually near the tail
        if (n > 0) {
          const int keep = rng.uniform() < 0.5
                               ? rng.uniform_int(0, n - 1)
                               : std::max(0, n - rng.uniform_int(1, 16));
          b.resize(static_cast<std::size_t>(keep));
        }
        break;
      default: {  // extension
        const int extra = rng.uniform_int(1, 16);
        for (int i = 0; i < extra; ++i) {
          b.push_back(static_cast<std::uint8_t>(rng.next_u64()));
        }
        break;
      }
    }
  }
  return b;
}

// ---------------------------------------------------------------------------
// Session snapshots

struct Fixture {
  model::ModelConfig cfg = daop::testing::small_mixtral();
  sim::CostModel cm{sim::a6000_i9_platform()};
  model::OpCosts costs{cfg, cm};
  data::SequenceTrace trace;
  cache::Placement placement{1, 1};
  core::DaopConfig dcfg;

  Fixture() {
    const data::TraceGenerator gen(data::c4(), cfg.n_layers, cfg.n_experts,
                                   cfg.top_k, 7);
    trace = gen.generate(0, 20, 10);
    const data::TraceGenerator calib(data::sharegpt_calibration(),
                                     cfg.n_layers, cfg.n_experts, cfg.top_k,
                                     7 ^ 0xCA11Bu);
    placement = cache::init_placement_calibrated(
        cfg.n_layers, cfg.n_experts, 0.469,
        cache::calibrate_activation_counts(calib, 6));
    dcfg.min_predict_layer = 1;
  }
};

struct SeedSpec {
  eval::EngineKind kind;
  bool shared;
  const char* hazard;  // "" = calm
};

/// One session with everything it runs on; a shared one decodes against
/// its own arbiter on a timeline it does not own the energy of.
struct Live {
  std::unique_ptr<engines::Engine> engine;
  std::unique_ptr<sim::FaultModel> fault;
  std::unique_ptr<cache::PlacementArbiter> arbiter;
  sim::Timeline tl;
  std::unique_ptr<engines::SequenceSession> session;
};

std::unique_ptr<Live> open_live(const Fixture& fx, const SeedSpec& spec) {
  auto ls = std::make_unique<Live>();
  ls->engine = eval::make_engine(spec.kind, fx.costs, fx.dcfg);
  const sim::HazardScenario hz = spec.hazard[0] == '\0'
                                     ? sim::HazardScenario{}
                                     : sim::make_hazard_scenario(spec.hazard,
                                                                 0.8);
  ls->fault = std::make_unique<sim::FaultModel>(hz, 0xFA017ULL);
  if (ls->fault->enabled()) ls->engine->set_fault_model(ls->fault.get());
  engines::SessionEnv env;
  env.timeline = &ls->tl;
  env.request_id = 42;
  if (spec.shared) {
    ls->arbiter = std::make_unique<cache::PlacementArbiter>(fx.placement);
    env.arbiter = ls->arbiter.get();
    env.shared = true;
  }
  ls->session = ls->engine->open_session(fx.trace, fx.placement, env);
  return ls;
}

int pins_of(const Live& ls) {
  return ls.arbiter == nullptr ? 0 : ls.arbiter->total_pin_count();
}

/// Drives `ls` to completion from wherever it is and closes it.
void finish(Live& ls) {
  while (ls.session->decode_step()) {
  }
  (void)ls.session->close();
}

std::string seed_name(const SeedSpec& spec) {
  return std::string(eval::engine_kind_name(spec.kind)) +
         (spec.shared ? " shared" : " private") + " hazard " +
         (spec.hazard[0] == '\0' ? "none" : spec.hazard);
}

std::vector<SeedSpec> seed_specs() {
  std::vector<SeedSpec> out;
  for (const eval::EngineKind kind :
       {eval::EngineKind::Daop, eval::EngineKind::Fiddler,
        eval::EngineKind::MoEInfinity}) {
    for (const bool shared : {false, true}) {
      for (const char* hazard : {"", "all"}) {
        out.push_back({kind, shared, hazard});
      }
    }
  }
  return out;
}

const std::vector<std::uint8_t> kBinaryDict = {0x00, 0x01, 0x02, 0x7F,
                                               0x80, 0xFE, 0xFF, 0x08};

TEST(SnapshotFuzz, MutantsNeverThrowAndRejectionsLeaveSessionsUsable) {
  const Fixture fx;
  Rng rng(kFuzzSeed);
  long long accepted = 0;
  long long rejected = 0;
  for (const SeedSpec& spec : seed_specs()) {
    SCOPED_TRACE(seed_name(spec));
    std::vector<std::uint8_t> payload;
    {
      const std::unique_ptr<Live> src = open_live(fx, spec);
      src->session->prefill();
      for (int t = 0; t < 4; ++t) ASSERT_TRUE(src->session->decode_step());
      payload = *unseal(src->session->checkpoint());
      finish(*src);
    }
    for (int i = 0; i < kSnapshotMutantsPerSeed; ++i) {
      SCOPED_TRACE("mutant " + std::to_string(i));
      const std::vector<std::uint8_t> sealed =
          seal(mutate(payload, rng, kBinaryDict));
      bool peeked = false;
      ASSERT_NO_THROW(
          peeked = engines::SequenceSession::peek(sealed).has_value());
      const std::unique_ptr<Live> dst = open_live(fx, spec);
      bool restored = false;
      ASSERT_NO_THROW(restored = dst->session->restore(sealed, {}));
      if (restored) {
        ++accepted;
        EXPECT_TRUE(peeked) << "restore() accepted what peek() rejects";
        ASSERT_NO_THROW(finish(*dst));
      } else {
        ++rejected;
        EXPECT_EQ(dst->session->tokens_generated(), 0);
        EXPECT_EQ(pins_of(*dst), 0);
        ASSERT_NO_THROW(dst->session->prefill());
        ASSERT_NO_THROW(finish(*dst));
      }
      EXPECT_EQ(pins_of(*dst), 0);
    }
  }
  // Both outcomes must be exercised, or the driver is not reaching field
  // validation (everything rejected) or not mutating (everything accepted).
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(SnapshotFuzz, RawMutantsAreRejectedByUnsealUnlessUnchanged) {
  const Fixture fx;
  Rng rng(kFuzzSeed ^ 1);
  for (const SeedSpec& spec : seed_specs()) {
    SCOPED_TRACE(seed_name(spec));
    const std::unique_ptr<Live> src = open_live(fx, spec);
    src->session->prefill();
    for (int t = 0; t < 4; ++t) ASSERT_TRUE(src->session->decode_step());
    const std::vector<std::uint8_t> blob = src->session->checkpoint();
    finish(*src);
    for (int i = 0; i < kRawMutantsPerSeed; ++i) {
      const std::vector<std::uint8_t> m = mutate(blob, rng, kBinaryDict);
      std::optional<std::vector<std::uint8_t>> payload;
      ASSERT_NO_THROW(payload = unseal(m));
      EXPECT_EQ(payload.has_value(), m == blob) << "mutant " << i;
      ASSERT_NO_THROW((void)engines::SequenceSession::peek(m));
    }
  }
}

// ---------------------------------------------------------------------------
// Routing traces (the `daop_cli dump` format)

TEST(TraceFuzz, MutatedDumpsLoadOrRejectWithCheckError) {
  const data::TraceGenerator gen(data::c4(), 2, 8, 2, 123);
  std::ostringstream os;
  data::save_trace(gen.generate(0, 4, 3), os);
  const std::string text = os.str();
  const std::vector<std::uint8_t> original(text.begin(), text.end());
  std::vector<std::uint8_t> dict;
  for (const char c : std::string("0123456789-+.eEinfaINF |PD#\n\t")) {
    dict.push_back(static_cast<std::uint8_t>(c));
  }
  dict.push_back(0x00);
  dict.push_back(0xFF);

  Rng rng(kFuzzSeed ^ 2);
  long long loaded = 0;
  long long rejected = 0;
  for (int i = 0; i < kTraceMutants; ++i) {
    const std::vector<std::uint8_t> m = mutate(original, rng, dict);
    std::istringstream is(std::string(m.begin(), m.end()));
    try {
      const data::SequenceTrace tr = data::load_trace(is);
      ++loaded;
      // An accepted trace is well-formed: it saves and reloads.
      std::stringstream again;
      data::save_trace(tr, again);
      const data::SequenceTrace back = data::load_trace(again);
      EXPECT_EQ(back.n_layers(), tr.n_layers()) << "mutant " << i;
      EXPECT_EQ(back.n_experts, tr.n_experts) << "mutant " << i;
      EXPECT_EQ(back.prompt_len, tr.prompt_len) << "mutant " << i;
      EXPECT_EQ(back.gen_len, tr.gen_len) << "mutant " << i;
    } catch (const CheckError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw a non-diagnostic "
                    << e.what();
    }
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace daop::recovery
