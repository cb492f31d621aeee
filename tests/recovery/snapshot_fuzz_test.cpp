// Seeded mutational fuzz driver for the parsers of external bytes: sealed
// session snapshots (recovery::unseal, SequenceSession::restore and
// SequenceSession::decode behind the test-side peek), the daop-trace text
// format (data::load_trace), and the CLI's name and spec parsers
// (--slo-rules, hazard presets, cache, dispatch and admission policies).
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
//    in shape, or rejects with CheckError;
//  - every name or spec parser either returns a value that passes its
//    validate() (a policy name round-trips) or rejects with CheckError.
// The generator seed and the mutant counts are fixed, so the run is
// deterministic and its cost bounded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "../testing/helpers.hpp"
#include "../testing/snapshot.hpp"
#include "cache/arbiter.hpp"
#include "cache/calibration.hpp"
#include "cache/expert_cache.hpp"
#include "cluster/router.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "data/trace_generator.hpp"
#include "data/trace_io.hpp"
#include "engines/session.hpp"
#include "eval/overload.hpp"
#include "eval/speed.hpp"
#include "obs/alerting.hpp"
#include "recovery/snapshot.hpp"
#include "sim/fault_model.hpp"
#include "sim/timeline.hpp"

namespace daop::recovery {
namespace {

using testing::seal;

constexpr int kSnapshotMutantsPerSeed = 1000;
constexpr int kRawMutantsPerSeed = 64;
constexpr int kTraceMutants = 1500;
constexpr int kSpecMutants = 2000;
constexpr int kNameMutants = 400;
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
          peeked = testing::peek(sealed).has_value());
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
      ASSERT_NO_THROW((void)testing::peek(m));
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

// ---------------------------------------------------------------------------
// Name and spec parsers (the CLI's --slo-rules, --hazard, --cache-policy,
// --dispatch and --admission values)

/// Splices the spec grammar's separators and hostile numbers into text.
const std::vector<std::string> kSpecTokens = {
    ";", ",", "=", "1e300", "-1e300", "nan", "-nan", "inf", "-1", "-0",
    "0", "3.9", "2147483648", "-2147483649", "1e-320", "0x10", " "};

std::string mutate_text(const std::string& text, Rng& rng,
                        const std::vector<std::uint8_t>& dict) {
  std::vector<std::uint8_t> b(text.begin(), text.end());
  if (rng.uniform() < 0.5) {
    b = mutate(std::move(b), rng, dict);
  } else {
    const int n_splices = rng.uniform_int(1, 3);
    for (int k = 0; k < n_splices; ++k) {
      const std::string& tok = kSpecTokens[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(kSpecTokens.size()) - 1))];
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(b.size())));
      // Either replaces the rest of a field or drops the token in.
      if (rng.uniform() < 0.5) {
        std::size_t end = at;
        while (end < b.size() && b[end] != ',' && b[end] != ';') ++end;
        b.erase(b.begin() + static_cast<std::ptrdiff_t>(at),
                b.begin() + static_cast<std::ptrdiff_t>(end));
      }
      b.insert(b.begin() + static_cast<std::ptrdiff_t>(at), tok.begin(),
               tok.end());
    }
  }
  return std::string(b.begin(), b.end());
}

/// Runs `parse` on `input`: true when it accepted, false on CheckError; any
/// other exception fails the test.
template <typename Parse>
bool accepts(const Parse& parse, const std::string& input) {
  try {
    parse(input);
    return true;
  } catch (const CheckError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "'" << input << "' threw a non-diagnostic " << e.what();
    return false;
  }
}

std::vector<std::uint8_t> spec_dict() {
  std::vector<std::uint8_t> dict;
  for (const char c : std::string("0123456789-+.eEnaif;,= \t")) {
    dict.push_back(static_cast<std::uint8_t>(c));
  }
  dict.push_back(0x00);
  dict.push_back(0xFF);
  return dict;
}

TEST(SpecFuzz, SloRuleSpecsParseToValidRulesOrRejectWithCheckError) {
  const std::vector<std::string> seeds = {
      "name=ttft,kind=latency,signal=daop_serving_ttft_seconds,target=2.5,"
      "objective=0.9,fast=2,slow=6,fast-burn=4,slow-burn=2",
      "name=shed,kind=ratio,signal=daop_requests_shed_total,"
      "total=daop_serving_requests_total,objective=0.99,fast=1,slow=4,"
      "fast-burn=10,slow-burn=5;name=lat,kind=latency,signal=s_seconds,"
      "target=1,objective=0.5"};
  const std::vector<std::uint8_t> dict = spec_dict();
  Rng rng(kFuzzSeed ^ 3);
  long long parsed = 0;
  long long rejected = 0;
  for (int i = 0; i < kSpecMutants; ++i) {
    const std::string m = mutate_text(
        seeds[static_cast<std::size_t>(i) % seeds.size()], rng, dict);
    const bool ok = accepts(
        [](const std::string& spec) {
          for (const obs::SloRule& r : obs::parse_slo_rules(spec)) {
            EXPECT_NO_THROW(r.validate()) << "accepted '" << spec << "'";
          }
        },
        m);
    (ok ? parsed : rejected) += 1;
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(SpecFuzz, HazardPresetsParseToValidScenariosOrRejectWithCheckError) {
  const std::vector<double> intensities = {
      0.5, 0.0, 1.0, -0.0, -1.0, 1.0000001, 1e300, -1e300,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(), 1e-320};
  const std::vector<std::uint8_t> dict = spec_dict();
  const std::vector<std::string>& kinds = sim::hazard_scenario_kinds();
  Rng rng(kFuzzSeed ^ 4);
  long long parsed = 0;
  long long rejected = 0;
  for (int i = 0; i < kNameMutants; ++i) {
    const std::string& kind = kinds[static_cast<std::size_t>(i) % kinds.size()];
    const std::string m =
        rng.uniform() < 0.5 ? kind : mutate_text(kind, rng, dict);
    const double intensity = intensities[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(intensities.size()) - 1))];
    const bool ok = accepts(
        [intensity](const std::string& k) {
          const sim::HazardScenario sc =
              sim::make_hazard_scenario(k, intensity);
          EXPECT_NO_THROW(sc.validate())
              << "accepted '" << k << "' at " << intensity;
        },
        m);
    (ok ? parsed : rejected) += 1;
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(SpecFuzz, PolicyNamesRoundTripOrRejectWithCheckError) {
  const std::vector<std::uint8_t> dict = spec_dict();
  Rng rng(kFuzzSeed ^ 5);
  // Each parser with the names it accepts, and its name for a value.
  struct NameParser {
    std::vector<std::string> names;
    std::function<std::string(const std::string&)> round_trip;
  };
  std::vector<NameParser> parsers;
  {
    NameParser p;
    for (const cache::CachePolicy c : cache::all_cache_policies()) {
      p.names.emplace_back(cache::cache_policy_name(c));
    }
    p.round_trip = [](const std::string& n) {
      cache::ExpertCacheOptions o;
      o.policy = cache::parse_cache_policy(n);
      o.validate();
      return std::string(cache::cache_policy_name(o.policy));
    };
    parsers.push_back(std::move(p));
  }
  parsers.push_back(
      {{"round-robin", "least-loaded", "expert-affinity"},
       [](const std::string& n) {
         return std::string(
             cluster::dispatch_policy_name(cluster::parse_dispatch_policy(n)));
       }});
  parsers.push_back(
      {{"fifo", "lifo-shed", "deadline-edf"}, [](const std::string& n) {
         return std::string(
             eval::admission_policy_name(eval::parse_admission_policy(n)));
       }});
  for (const NameParser& p : parsers) {
    long long parsed = 0;
    long long rejected = 0;
    for (int i = 0; i < kNameMutants; ++i) {
      const std::string& name =
          p.names[static_cast<std::size_t>(i) % p.names.size()];
      const std::string m =
          i % 4 == 0 ? name : mutate_text(name, rng, dict);
      const bool ok = accepts(
          [&p](const std::string& n) {
            EXPECT_EQ(p.round_trip(n), n) << "accepted '" << n << "'";
          },
          m);
      (ok ? parsed : rejected) += 1;
    }
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 0);
  }
}

}  // namespace
}  // namespace daop::recovery
