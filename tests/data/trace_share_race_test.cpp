// Race test of copy-on-write routing traces. Many tasks on the shared pool
// copy one trace, read through their copies, detach private copies with
// set_cell, and destroy copies (the last of which frees the blocks), all at
// once. Every reading task must see exactly the trace a serial walk sees;
// under ThreadSanitizer any unsynchronised refcount or block access fails
// the run.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "common/thread_pool.hpp"
#include "data/trace_generator.hpp"
#include "data/workload.hpp"

namespace daop::data {
namespace {

constexpr int kTasks = 64;
constexpr int kRounds = 8;

/// Order-fixed sum of every score, prediction, id and count of `tr`.
double checksum(const SequenceTrace& tr) {
  double sum = 0.0;
  for (const Phase phase : {Phase::Prefill, Phase::Decode}) {
    const int n_tokens = phase == Phase::Prefill ? tr.prompt_len : tr.gen_len;
    for (int l = 0; l < tr.n_layers(); ++l) {
      for (int t = 0; t < n_tokens; ++t) {
        const TokenRouting c = tr.at(phase, l, t);
        sum = std::accumulate(c.scores.begin(), c.scores.end(), sum);
        sum = std::accumulate(c.pred_scores.begin(), c.pred_scores.end(), sum);
        for (const ExpertId e : c.selected) sum += e;
        for (const ExpertId e : c.predicted) sum += 0.5 * e;
      }
      for (const double n : tr.counts(phase, l)) sum += n;
    }
  }
  return sum;
}

TEST(TraceShareRace, ConcurrentCopiesReadsDetachesAndDestroys) {
  const TraceGenerator gen(c4(), 8, 8, 2, 21);
  auto shared = std::make_unique<SequenceTrace>(gen.generate(0, 24, 24));
  const double want = checksum(gen.generate(0, 24, 24));
  std::vector<float> scores(8, 0.0F);
  scores[5] = 1.0F;

  // Each task's copies, kept past the first pass so that the second pass
  // destroys the last references concurrently.
  std::vector<SequenceTrace> kept(kTasks);
  std::vector<double> seen(kTasks * kRounds, 0.0);
  std::vector<double> seen_last(kTasks, 0.0);
  std::vector<std::uint8_t> detached_ok(kTasks, 0);
  ThreadPool::global().parallel_for(kTasks, [&](std::int64_t task) {
    const auto i = static_cast<std::size_t>(task);
    for (int r = 0; r < kRounds; ++r) {
      SequenceTrace copy = *shared;
      SequenceTrace second = copy;
      copy = SequenceTrace();
      seen[i * kRounds + static_cast<std::size_t>(r)] = checksum(second);
    }
    SequenceTrace mine = *shared;
    mine.set_cell(Phase::Decode, static_cast<int>(task % 8), 0, scores);
    detached_ok[i] = mine.selected(Phase::Decode, static_cast<int>(task % 8),
                                   0)[0] == 5;
    kept[i] = *shared;
  });
  shared.reset();  // the kept copies now hold the only references
  ThreadPool::global().parallel_for(kTasks, [&](std::int64_t task) {
    const auto i = static_cast<std::size_t>(task);
    seen_last[i] = checksum(kept[i]);
    kept[i] = SequenceTrace();
  });

  for (std::size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i], want) << "read " << i;
  }
  for (int t = 0; t < kTasks; ++t) {
    EXPECT_EQ(seen_last[t], want) << "task " << t;
    EXPECT_TRUE(detached_ok[t]) << "task " << t;
  }
}

}  // namespace
}  // namespace daop::data
