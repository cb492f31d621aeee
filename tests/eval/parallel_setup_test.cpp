// Differential determinism harness for set-up built on the shared pool:
// eval traces, §IV-A calibration counts and the paper similarity statistics
// generate their sequences concurrently, and must stay bit-identical to a
// serial loop over TraceGenerator::generate. Each path is checked called
// directly, nested inside shared-pool workers (the inline path) and from the
// workers of another pool, for fewer sequences than workers and for a count
// that is not a multiple of the chunk count.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "../testing/helpers.hpp"
#include "cache/calibration.hpp"
#include "common/check.hpp"
#include "data/trace_generator.hpp"
#include "eval/parallel_sweep.hpp"
#include "eval/similarity.hpp"

namespace daop::eval {
namespace {

constexpr int kWindow = 16;

template <class T>
void append(std::string& out, std::span<const T> v) {
  out.append(reinterpret_cast<const char*>(v.data()), v.size_bytes());
}

void append(std::string& out, const std::vector<std::vector<double>>& m) {
  for (const auto& row : m) append(out, std::span<const double>(row));
}

void append(std::string& out, double v) {
  append(out, std::span<const double>(&v, 1));
}

// Every score, prediction score, id and count of a trace, as raw bytes.
void append(std::string& out, const data::SequenceTrace& tr) {
  for (const data::Phase phase : {data::Phase::Prefill, data::Phase::Decode}) {
    const int n_tokens =
        phase == data::Phase::Prefill ? tr.prompt_len : tr.gen_len;
    for (int l = 0; l < tr.n_layers(); ++l) {
      append(out, tr.counts(phase, l));
      for (int t = 0; t < n_tokens; ++t) {
        const data::TokenRouting c = tr.at(phase, l, t);
        append(out, c.scores);
        append(out, c.pred_scores);
        append(out, c.selected);
        append(out, c.predicted);
      }
    }
  }
}

SpeedEvalOptions eval_options(int n_seqs) {
  SpeedEvalOptions opt;
  opt.n_seqs = n_seqs;
  opt.prompt_len = 12;
  opt.gen_len = 20;
  opt.seed = 41;
  return opt;
}

// A drifting workload, shortened so 17 sequences stay cheap under TSan.
data::TraceGenerator stats_generator() {
  data::WorkloadSpec spec = data::gsm8k();
  spec.prompt_len = 16;
  spec.gen_len = 3 * kWindow;
  return data::TraceGenerator(spec, 6, 8, 2, 5);
}

data::TraceGenerator calibration_generator() {
  data::WorkloadSpec spec = data::sharegpt_calibration();
  spec.prompt_len = 8;
  spec.gen_len = 24;
  return data::TraceGenerator(spec, 6, 8, 2, 9);
}

// The pool-built outputs for n sequences, as one byte string.
std::string parallel_bytes(int n) {
  std::string out;
  for (const auto& tr : generate_eval_traces(
           daop::testing::small_mixtral(), data::c4(), eval_options(n))) {
    append(out, tr);
  }
  append(out,
         cache::calibrate_activation_counts(calibration_generator(), n));
  const data::TraceGenerator gen = stats_generator();
  append(out, avg_prefill_decode_similarity(gen, n));
  append(out, std::span<const double>(prediction_accuracy_by_layer(gen, n)));
  append(out, avg_decode_window_similarity(gen, n, kWindow));
  return out;
}

// The same outputs from plain serial loops over TraceGenerator::generate.
std::string serial_bytes(int n) {
  std::string out;
  const model::ModelConfig cfg = daop::testing::small_mixtral();
  const SpeedEvalOptions opt = eval_options(n);
  const data::TraceGenerator eval_gen(data::c4(), cfg.n_layers, cfg.n_experts,
                                      cfg.top_k, opt.seed);
  for (int s = 0; s < n; ++s) {
    append(out, eval_gen.generate(s, opt.prompt_len, opt.gen_len));
  }

  const data::TraceGenerator calib_gen = calibration_generator();
  std::vector<std::vector<double>> counts;
  for (int s = 0; s < n; ++s) {
    const auto c = calib_gen.generate(s).activation_counts(data::Phase::Decode);
    if (counts.empty()) {
      counts.assign(c.size(), std::vector<double>(c[0].size(), 0.0));
    }
    for (std::size_t l = 0; l < c.size(); ++l) {
      for (std::size_t e = 0; e < c[l].size(); ++e) counts[l][e] += c[l][e];
    }
  }
  append(out, counts);

  const data::TraceGenerator gen = stats_generator();
  double prefill_decode = 0.0;
  double window = 0.0;
  std::vector<double> correct;
  std::vector<double> total;
  for (int s = 0; s < n; ++s) {
    const data::SequenceTrace tr = gen.generate(s);
    prefill_decode += prefill_decode_similarity(tr);
    window += decode_window_similarity(tr, kWindow);
    correct.resize(static_cast<std::size_t>(tr.n_layers()), 0.0);
    total.resize(correct.size(), 0.0);
    for (int l = 1; l < tr.n_layers(); ++l) {
      for (int t = 0; t < tr.gen_len; ++t) {
        const auto pred = tr.predicted(l, t);
        if (pred.empty()) continue;
        for (const data::ExpertId e : tr.selected(data::Phase::Decode, l, t)) {
          total[static_cast<std::size_t>(l)] += 1.0;
          if (std::find(pred.begin(), pred.end(), e) != pred.end()) {
            correct[static_cast<std::size_t>(l)] += 1.0;
          }
        }
      }
    }
  }
  std::vector<double> acc(correct.size(), 0.0);
  for (std::size_t l = 0; l < acc.size(); ++l) {
    if (total[l] > 0.0) acc[l] = correct[l] / total[l];
  }
  append(out, prefill_decode / n);
  append(out, std::span<const double>(acc));
  append(out, window / n);
  return out;
}

const std::vector<int> kSeqCounts = {1, 3, 17};

TEST(ParallelSetup, DirectCallsMatchSerialLoop) {
  for (const int n : kSeqCounts) {
    EXPECT_EQ(parallel_bytes(n), serial_bytes(n)) << "n_seqs=" << n;
  }
}

// threads == 0 runs the cells on the shared pool's own workers, so every
// set-up call inside takes the nested inline path; threads == 3 calls the
// shared pool from another pool's workers. Several cells run at once.
TEST(ParallelSetup, CallsFromSweepCellsMatchSerialLoop) {
  for (const unsigned threads : {0U, 3U}) {
    const ParallelSweepRunner runner(threads);
    std::vector<std::string> got(kSeqCounts.size());
    runner.run_cells(static_cast<std::int64_t>(got.size()),
                     [&](std::int64_t i) {
                       got[static_cast<std::size_t>(i)] = parallel_bytes(
                           kSeqCounts[static_cast<std::size_t>(i)]);
                     });
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], serial_bytes(kSeqCounts[i]))
          << "threads=" << threads << " n_seqs=" << kSeqCounts[i];
    }
  }
}

TEST(ParallelSetup, InvalidShapeThrowsOnCaller) {
  SpeedEvalOptions bad = eval_options(17);
  bad.prompt_len = 0;
  const model::ModelConfig cfg = daop::testing::small_mixtral();
  EXPECT_THROW(generate_eval_traces(cfg, data::c4(), bad), CheckError);
  for (const unsigned threads : {0U, 3U}) {
    const ParallelSweepRunner runner(threads);
    EXPECT_THROW(runner.run_cells(3,
                                  [&](std::int64_t) {
                                    generate_eval_traces(cfg, data::c4(), bad);
                                  }),
                 CheckError)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace daop::eval
