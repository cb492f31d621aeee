#include "eval/similarity.hpp"

#include <algorithm>
#include <span>

#include "cache/calibration.hpp"
#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace daop::eval {

double matrix_similarity(const std::vector<std::vector<double>>& p,
                         const std::vector<std::vector<double>>& d) {
  DAOP_CHECK_EQ(p.size(), d.size());
  DAOP_CHECK(!p.empty());
  double total = 0.0;
  for (std::size_t l = 0; l < p.size(); ++l) {
    DAOP_CHECK_EQ(p[l].size(), d[l].size());
    total += cosine_similarity(std::span<const double>(p[l]),
                               std::span<const double>(d[l]));
  }
  return total / static_cast<double>(p.size());
}

double prefill_decode_similarity(const data::SequenceTrace& trace) {
  return matrix_similarity(trace.activation_counts(data::Phase::Prefill),
                           trace.activation_counts(data::Phase::Decode));
}

double avg_prefill_decode_similarity(const data::TraceGenerator& gen,
                                     int n_seqs) {
  DAOP_CHECK_GT(n_seqs, 0);
  std::vector<double> sims(static_cast<std::size_t>(n_seqs));
  ThreadPool::global().parallel_for(n_seqs, [&](std::int64_t s) {
    sims[static_cast<std::size_t>(s)] =
        prefill_decode_similarity(gen.generate(static_cast<int>(s)));
  });
  double total = 0.0;
  for (const double v : sims) total += v;
  return total / n_seqs;
}

std::vector<std::vector<double>> marginal_activation(
    const data::TraceGenerator& gen, int n_seqs) {
  // The same decode-count sum as §IV-A calibration, normalized per layer.
  auto total = cache::calibrate_activation_counts(gen, n_seqs);
  for (auto& row : total) {
    double sum = 0.0;
    for (double v : row) sum += v;
    if (sum > 0.0) {
      for (auto& v : row) v /= sum;
    }
  }
  return total;
}

std::vector<double> prediction_accuracy_by_layer(
    const data::TraceGenerator& gen, int n_seqs) {
  DAOP_CHECK_GT(n_seqs, 0);
  // Per-sequence hit and selection tallies, built concurrently and summed on
  // the caller in sequence order.
  struct Tally {
    std::vector<double> correct;
    std::vector<double> total;
  };
  std::vector<Tally> per_seq(static_cast<std::size_t>(n_seqs));
  ThreadPool::global().parallel_for(n_seqs, [&](std::int64_t s) {
    const data::SequenceTrace tr = gen.generate(static_cast<int>(s));
    Tally& out = per_seq[static_cast<std::size_t>(s)];
    out.correct.assign(static_cast<std::size_t>(tr.n_layers()), 0.0);
    out.total.assign(static_cast<std::size_t>(tr.n_layers()), 0.0);
    for (int l = 1; l < tr.n_layers(); ++l) {
      for (int t = 0; t < tr.gen_len; ++t) {
        const data::TokenRouting cell = tr.at(data::Phase::Decode, l, t);
        const std::span<const data::ExpertId> pred = cell.predicted;
        if (pred.empty()) continue;
        for (const data::ExpertId e : cell.selected) {
          out.total[static_cast<std::size_t>(l)] += 1.0;
          if (std::find(pred.begin(), pred.end(), e) != pred.end()) {
            out.correct[static_cast<std::size_t>(l)] += 1.0;
          }
        }
      }
    }
  });
  std::vector<double> correct(per_seq[0].correct.size(), 0.0);
  std::vector<double> total(correct.size(), 0.0);
  for (const Tally& t : per_seq) {
    for (std::size_t l = 0; l < correct.size(); ++l) {
      correct[l] += t.correct[l];
      total[l] += t.total[l];
    }
  }
  std::vector<double> acc(correct.size(), 0.0);
  for (std::size_t l = 0; l < correct.size(); ++l) {
    if (total[l] > 0.0) acc[l] = correct[l] / total[l];
  }
  return acc;
}

double avg_prediction_accuracy(const data::TraceGenerator& gen, int n_seqs) {
  const auto acc = prediction_accuracy_by_layer(gen, n_seqs);
  DAOP_CHECK_GT(acc.size(), 1U);
  double total = 0.0;
  for (std::size_t l = 1; l < acc.size(); ++l) total += acc[l];
  return total / static_cast<double>(acc.size() - 1);
}

double decode_window_similarity(const data::SequenceTrace& trace,
                                int window) {
  DAOP_CHECK_GT(window, 0);
  const int n_windows = trace.gen_len / window;
  if (n_windows < 2) return 1.0;
  double total = 0.0;
  int pairs = 0;
  auto prev = trace.decode_window_counts(0, window);
  for (int w = 1; w < n_windows; ++w) {
    auto cur = trace.decode_window_counts(w * window, (w + 1) * window);
    total += matrix_similarity(prev, cur);
    ++pairs;
    prev = std::move(cur);
  }
  return total / pairs;
}

double avg_decode_window_similarity(const data::TraceGenerator& gen,
                                    int n_seqs, int window) {
  DAOP_CHECK_GT(n_seqs, 0);
  std::vector<double> sims(static_cast<std::size_t>(n_seqs));
  ThreadPool::global().parallel_for(n_seqs, [&](std::int64_t s) {
    sims[static_cast<std::size_t>(s)] =
        decode_window_similarity(gen.generate(static_cast<int>(s)), window);
  });
  double total = 0.0;
  for (const double v : sims) total += v;
  return total / n_seqs;
}

}  // namespace daop::eval
