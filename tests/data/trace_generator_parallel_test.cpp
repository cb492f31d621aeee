// Differential test of the parallel trace build: TraceGenerator::generate
// records the normal() stream once and replays it per layer on the shared
// pool, writing each layer's cells in place into blocks it never
// zero-fills, and must reproduce the serial draw order bit for bit. The
// oracle below is the serial generate body verbatim, built through the
// zero-filling shape constructor and set_cell, and the two traces' phase
// blocks are compared byte for byte: scores, predictions, ids, flags and
// counts, the bytes no accessor shows (layer 0's empty prediction rows)
// included. Every heap allocation in this binary is poisoned first, so a
// byte the in-place writer forgets to write differs from the oracle's
// whatever the allocator hands back. The shapes put segment starts on both
// halves of a Box-Muller pair (odd n_experts and prompt lengths), cross
// decode token blocks, and hit the degenerate edges; the callers cover the
// main thread, a shared-pool worker (the nested, inline path) and a
// foreign pool's worker.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "data/trace_generator.hpp"
#include "data/workload.hpp"

namespace {
constexpr unsigned char kPoison = 0xA5;
}  // namespace

// Poisons every allocation, so unwritten bytes never read as zero.
void* operator new(std::size_t n) {
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    std::memset(p, kPoison, n);
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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

// One phase's blocks as one run of bytes, laid out as routing_trace.hpp
// describes: counts, scores, (decode) predictions, ids, (decode) predicted
// ids and has-prediction flags. Each block start that an accessor hands
// out is checked against the computed layout, so a layout change fails
// here instead of reading past the buffer.
struct PhaseBytes {
  std::span<const unsigned char> bytes;
  // Block names and the offsets where they start, in order.
  std::vector<std::pair<const char*, std::size_t>> blocks;
};

PhaseBytes phase_bytes(const SequenceTrace& tr, Phase phase) {
  const bool decode = phase == Phase::Decode;
  const auto L = static_cast<std::size_t>(tr.n_layers());
  const auto E = static_cast<std::size_t>(tr.n_experts);
  const auto K = static_cast<std::size_t>(tr.top_k);
  const auto T = static_cast<std::size_t>(decode ? tr.gen_len : tr.prompt_len);
  const std::size_t cells = L * T;
  const auto* base =
      reinterpret_cast<const unsigned char*>(tr.counts(phase, 0).data());
  PhaseBytes out;
  std::size_t off = 0;
  // Appends a block and returns where it starts.
  const auto block = [&](const char* name, std::size_t bytes) {
    out.blocks.emplace_back(name, off);
    off += bytes;
    return static_cast<const void*>(base + out.blocks.back().second);
  };
  block("counts", L * E * sizeof(double));
  const void* scores = block("scores", cells * E * sizeof(float));
  const void* pred_scores =
      decode ? block("pred_scores", cells * E * sizeof(float)) : nullptr;
  const void* ids = block("ids", cells * K);
  const void* pred_ids = decode ? block("pred_ids", cells * K) : nullptr;
  if (decode) block("has_pred", cells);

  bool anchored = true;
  if (T > 0) {
    const TokenRouting first = tr.at(phase, 0, 0);
    anchored = first.scores.data() == scores && first.selected.data() == ids;
    if (decode && L > 1) {
      // Layer 1's first cell has a prediction, T cells into each block.
      const TokenRouting next = tr.at(phase, 1, 0);
      anchored = anchored &&
                 next.pred_scores.data() ==
                     static_cast<const float*>(pred_scores) + T * E &&
                 next.predicted.data() ==
                     static_cast<const ExpertId*>(pred_ids) + T * K;
    }
  }
  if (!anchored) {
    ADD_FAILURE() << "trace blocks are not laid out as this test expects";
    return {};
  }
  out.bytes = {base, off};
  return out;
}

// The first place `got` differs from `want` bit for bit, or "" if nowhere.
std::string first_difference(const SequenceTrace& want,
                             const SequenceTrace& got) {
  if (want.n_layers() != got.n_layers() || want.n_experts != got.n_experts ||
      want.top_k != got.top_k || want.prompt_len != got.prompt_len ||
      want.gen_len != got.gen_len) {
    return "shape";
  }
  for (const Phase phase : {Phase::Prefill, Phase::Decode}) {
    const PhaseBytes a = phase_bytes(want, phase);
    const PhaseBytes b = phase_bytes(got, phase);
    if (a.bytes.empty() || a.bytes.size() != b.bytes.size()) return "layout";
    const auto diff =
        std::mismatch(a.bytes.begin(), a.bytes.end(), b.bytes.begin());
    if (diff.first == a.bytes.end()) continue;
    const auto offset =
        static_cast<std::size_t>(diff.first - a.bytes.begin());
    const char* name = "";
    std::size_t start = 0;
    for (const auto& [n, o] : a.blocks) {
      if (o <= offset) {
        name = n;
        start = o;
      }
    }
    std::ostringstream out;
    out << (phase == Phase::Prefill ? "prefill " : "decode ") << name
        << ", byte " << offset - start;
    return out.str();
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

TEST(TraceGeneratorParallel, NanScoresAreRejected) {
  // A NaN score has no rank; the in-place writer rejects it like
  // set_cell, from whichever thread wrote the cell.
  WorkloadSpec prefill_nan = c4();
  prefill_nan.token_noise_sigma = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(TraceGenerator(prefill_nan, 8, 8, 2, 1).generate(0, 16, 16),
               CheckError);
  WorkloadSpec pred_nan = c4();  // only predictions above layer 3
  pred_nan.pred_noise_late = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(TraceGenerator(pred_nan, 8, 8, 2, 1).generate(0, 16, 16),
               CheckError);
  // The pool stays usable.
  EXPECT_EQ(first_difference(serial_generate(c4(), 8, 8, 2, 1, 0, 16, 16),
                             TraceGenerator(c4(), 8, 8, 2, 1).generate(0, 16, 16)),
            "");
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
