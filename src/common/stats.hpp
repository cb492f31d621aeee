// Small descriptive-statistics helpers used by the benchmark harness to
// report dispersion (the paper reports single numbers; we add stddev /
// confidence intervals across sequences so shape claims are testable).
#pragma once

#include <span>
#include <vector>

namespace daop {

struct Summary {
  int n = 0;
  double mean = 0.0;
  double stddev = 0.0;   ///< sample standard deviation (n-1)
  double min = 0.0;
  double max = 0.0;
  /// Half-width of the normal-approximation 95% confidence interval of the
  /// mean (1.96 * stddev / sqrt(n)); 0 for n < 2.
  double ci95 = 0.0;
  /// Exact percentiles (linear interpolation between order statistics).
  /// Serving tail-latency reports use these as ground truth against the
  /// bucketed histogram estimates.
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

Summary summarize(std::span<const double> values);

/// p in [0,1]; linear interpolation between order statistics.
double percentile(std::span<const double> values, double p);

}  // namespace daop
