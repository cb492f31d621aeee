#include "cache/calibration.hpp"

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace daop::cache {

std::vector<std::vector<double>> calibrate_activation_counts(
    const data::TraceGenerator& gen, int n_sequences) {
  DAOP_CHECK_GT(n_sequences, 0);
  // Sequences decode concurrently, each into its own slot; the sum then runs
  // on the caller in sequence order, so every count is bit-identical to a
  // serial accumulation.
  std::vector<std::vector<std::vector<double>>> per_seq(
      static_cast<std::size_t>(n_sequences));
  ThreadPool::global().parallel_for(n_sequences, [&](std::int64_t s) {
    per_seq[static_cast<std::size_t>(s)] =
        gen.generate(static_cast<int>(s)).activation_counts(
            data::Phase::Decode);
  });
  std::vector<std::vector<double>> total = std::move(per_seq[0]);
  for (std::size_t s = 1; s < per_seq.size(); ++s) {
    for (std::size_t l = 0; l < total.size(); ++l) {
      const std::vector<double>& counts = per_seq[s][l];
      std::vector<double>& row = total[l];
      for (std::size_t e = 0; e < counts.size(); ++e) row[e] += counts[e];
    }
  }
  return total;
}

}  // namespace daop::cache
