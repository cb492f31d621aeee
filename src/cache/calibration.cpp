#include "cache/calibration.hpp"

#include <span>

#include "common/check.hpp"

namespace daop::cache {

std::vector<std::vector<double>> calibrate_activation_counts(
    const data::TraceGenerator& gen, int n_sequences) {
  DAOP_CHECK_GT(n_sequences, 0);
  std::vector<std::vector<double>> total;
  for (int s = 0; s < n_sequences; ++s) {
    const data::SequenceTrace tr = gen.generate(s);
    if (total.empty()) {
      total.assign(static_cast<std::size_t>(tr.n_layers()),
                   std::vector<double>(static_cast<std::size_t>(tr.n_experts),
                                       0.0));
    }
    for (int l = 0; l < tr.n_layers(); ++l) {
      const std::span<const double> counts = tr.counts(data::Phase::Decode, l);
      auto& row = total[static_cast<std::size_t>(l)];
      for (std::size_t e = 0; e < counts.size(); ++e) row[e] += counts[e];
    }
  }
  return total;
}

}  // namespace daop::cache
