// Differential test of the parallel trace build: TraceGenerator::generate
// records the normal() stream once and replays it per layer on the shared
// pool, and must reproduce the serial draw order bit for bit. The oracle
// below is the serial generate body verbatim, so every score, prediction,
// id and count is compared against what a single-threaded walk of the same
// stream produces. The shapes put segment starts on both halves of a
// Box-Muller pair (odd n_experts and prompt lengths), cross decode token
// blocks, and hit the degenerate edges; the callers cover the main thread,
// a shared-pool worker (the nested, inline path) and a foreign pool's
// worker.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "data/trace_generator.hpp"
#include "data/workload.hpp"

namespace daop::data {
namespace {

struct Shape {
  const char* name;
  WorkloadSpec spec;
  int n_layers;
  int n_experts;
  int top_k;
  int prompt_len;
  int gen_len;
};

// The serial generate body, kept verbatim as the oracle.
SequenceTrace serial_generate(const WorkloadSpec& spec_, int n_layers_,
                              int n_experts_, int top_k_, std::uint64_t seed_,
                              int seq_index, int prompt_len, int gen_len) {
  Rng rng = Rng(seed_).fork(static_cast<std::uint64_t>(seq_index));

  const auto E = static_cast<std::size_t>(n_experts_);
  const double skew = spec_.seq_skew_sigma;
  const double rho = spec_.layer_rho;
  const double shift = spec_.phase_shift_sigma;

  SequenceTrace tr(n_layers_, n_experts_, top_k_, prompt_len, gen_len);
  // One cell's scores and prediction, staged as floats for set_cell.
  std::vector<float> scores(E);
  std::vector<float> pred(E);

  // Layer-correlated sequence preference field.
  std::vector<std::vector<double>> pref(static_cast<std::size_t>(n_layers_),
                                        std::vector<double>(E));
  for (int l = 0; l < n_layers_; ++l) {
    auto& p = pref[static_cast<std::size_t>(l)];
    if (l == 0) {
      for (auto& v : p) v = skew * rng.normal();
    } else {
      const auto& prev = pref[static_cast<std::size_t>(l - 1)];
      const double fresh = std::sqrt(1.0 - rho * rho);
      for (std::size_t e = 0; e < E; ++e) {
        p[e] = rho * prev[e] + fresh * skew * rng.normal();
      }
    }
  }

  // Decode-phase preferences: correlated with prefill, scale-preserving.
  std::vector<std::vector<double>> dpref(static_cast<std::size_t>(n_layers_),
                                         std::vector<double>(E));
  const double keep = std::sqrt(std::max(0.0, 1.0 - shift * shift));
  for (int l = 0; l < n_layers_; ++l) {
    for (std::size_t e = 0; e < E; ++e) {
      dpref[static_cast<std::size_t>(l)][e] =
          keep * pref[static_cast<std::size_t>(l)][e] +
          shift * skew * rng.normal();
    }
  }

  // Prefill tokens.
  for (int l = 0; l < n_layers_; ++l) {
    for (int t = 0; t < prompt_len; ++t) {
      for (std::size_t e = 0; e < E; ++e) {
        scores[e] = static_cast<float>(
            pref[static_cast<std::size_t>(l)][e] +
            spec_.token_noise_sigma * rng.normal());
      }
      tr.set_cell(Phase::Prefill, l, t, scores);
    }
  }

  // Decode tokens with random-walk drift and gate-ahead predictions.
  std::vector<std::vector<double>> drift(static_cast<std::size_t>(n_layers_),
                                         std::vector<double>(E, 0.0));
  for (int t = 0; t < gen_len; ++t) {
    for (int l = 0; l < n_layers_; ++l) {
      auto& d = drift[static_cast<std::size_t>(l)];
      for (std::size_t e = 0; e < E; ++e) {
        d[e] = spec_.drift_rho * d[e] + spec_.drift_sigma * skew * rng.normal();
      }
      for (std::size_t e = 0; e < E; ++e) {
        scores[e] = static_cast<float>(
            dpref[static_cast<std::size_t>(l)][e] + d[e] +
            spec_.token_noise_sigma * rng.normal());
      }
      if (l == 0) {
        tr.set_cell(Phase::Decode, l, t, scores);
        continue;
      }
      // A prediction for this layer, formed while layer l-1 executed.
      const double pn = l < 4 ? spec_.pred_noise_early : spec_.pred_noise_late;
      for (std::size_t e = 0; e < E; ++e) {
        pred[e] = scores[e] + static_cast<float>(pn * rng.normal());
      }
      tr.set_cell(Phase::Decode, l, t, scores, pred);
    }
  }
  return tr;
}

template <class T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

// The first place `got` differs from `want` bit for bit, or "" if nowhere.
std::string first_difference(const SequenceTrace& want,
                             const SequenceTrace& got) {
  std::ostringstream out;
  if (want.n_layers() != got.n_layers() || want.n_experts != got.n_experts ||
      want.top_k != got.top_k || want.prompt_len != got.prompt_len ||
      want.gen_len != got.gen_len) {
    return "shape";
  }
  for (const Phase phase : {Phase::Prefill, Phase::Decode}) {
    const char* name = phase == Phase::Prefill ? "prefill" : "decode";
    const int n_tokens = phase == Phase::Prefill ? want.prompt_len : want.gen_len;
    for (int l = 0; l < want.n_layers(); ++l) {
      if (!same_bytes(want.counts(phase, l), got.counts(phase, l))) {
        out << name << " counts, layer " << l;
        return out.str();
      }
      for (int t = 0; t < n_tokens; ++t) {
        const TokenRouting a = want.at(phase, l, t);
        const TokenRouting b = got.at(phase, l, t);
        const char* field = !same_bytes(a.scores, b.scores) ? "scores"
                            : !same_bytes(a.pred_scores, b.pred_scores)
                                ? "pred_scores"
                            : !same_bytes(a.selected, b.selected) ? "selected"
                            : !same_bytes(a.predicted, b.predicted)
                                ? "predicted"
                                : nullptr;
        if (field != nullptr) {
          out << name << ' ' << field << ", layer " << l << " token " << t;
          return out.str();
        }
      }
    }
  }
  return "";
}

std::vector<Shape> shapes() {
  return {
      // Mixtral (32 layers, 8 experts, top-2) at perfbench plan lengths:
      // the shortest and longest requests and an uneven middle one. All
      // but the shortest span several 64-token decode blocks.
      {"mixtral_c4_short", c4(), 32, 8, 2, 64, 48},
      {"mixtral_c4_long", c4(), 32, 8, 2, 320, 256},
      {"mixtral_c4_mid", c4(), 32, 8, 2, 197, 131},
      {"mixtral_gsm8k", gsm8k(), 32, 8, 2, 256, 200},
      // Odd expert counts with odd prompts: prefill layers and decode cells
      // start on either half of a Box-Muller pair.
      {"odd_e5", c4(), 6, 5, 2, 3, 70},
      {"odd_e7", gsm8k(), 5, 7, 3, 9, 65},
      {"odd_e7_top_all", c4(), 4, 7, 7, 1, 5},
      // Degenerate edges.
      {"one_layer", c4(), 1, 8, 2, 7, 9},
      {"one_layer_odd", gsm8k(), 1, 5, 1, 1, 3},
      {"prompt_one", c4(), 8, 8, 2, 1, 12},
      {"no_decode", c4(), 8, 8, 2, 17, 0},
      {"no_decode_odd", c4(), 3, 5, 5, 5, 0},
      {"top_k_all", gsm8k(), 8, 8, 8, 10, 10},
  };
}

constexpr std::uint64_t kSeeds[] = {1, 0xDA0F};

// Every shape and seed, for two sequence indices, checked against the
// serial oracle. Returns the failures, one line each.
std::string check_all() {
  std::string failures;
  for (const Shape& s : shapes()) {
    for (const std::uint64_t seed : kSeeds) {
      const TraceGenerator gen(s.spec, s.n_layers, s.n_experts, s.top_k,
                               seed);
      for (const int index : {0, 3}) {
        const SequenceTrace want =
            serial_generate(s.spec, s.n_layers, s.n_experts, s.top_k, seed,
                            index, s.prompt_len, s.gen_len);
        const SequenceTrace got = gen.generate(index, s.prompt_len, s.gen_len);
        const std::string diff = first_difference(want, got);
        if (!diff.empty()) {
          failures += std::string(s.name) + " seed " + std::to_string(seed) +
                      " index " + std::to_string(index) + ": " + diff + "\n";
        }
      }
    }
  }
  return failures;
}

TEST(TraceGeneratorParallel, MatchesSerialOracleOnMainThread) {
  EXPECT_EQ(check_all(), "");
}

TEST(TraceGeneratorParallel, MatchesSerialOracleNestedInSharedPool) {
  // On a shared-pool worker the per-layer parallel_for runs inline.
  std::vector<std::string> failures(2);
  ThreadPool::global().parallel_for(
      2, [&](std::int64_t i) {
        failures[static_cast<std::size_t>(i)] = check_all();
      });
  for (const std::string& f : failures) EXPECT_EQ(f, "");
}

TEST(TraceGeneratorParallel, MatchesSerialOracleFromForeignPool) {
  // A foreign pool's workers fan the layers out to the shared pool.
  ThreadPool pool(3);
  std::vector<std::string> failures(3);
  pool.parallel_for(3, [&](std::int64_t i) {
    failures[static_cast<std::size_t>(i)] = check_all();
  });
  for (const std::string& f : failures) EXPECT_EQ(f, "");
}

TEST(TraceGeneratorParallel, DefaultLengthsMatchSerialOracle) {
  WorkloadSpec spec = gsm8k();
  spec.prompt_len = 33;
  spec.gen_len = 129;
  const TraceGenerator gen(spec, 8, 7, 2, 5);
  EXPECT_EQ(first_difference(serial_generate(spec, 8, 7, 2, 5, 2, 33, 129),
                             gen.generate(2)),
            "");
}

}  // namespace
}  // namespace daop::data
