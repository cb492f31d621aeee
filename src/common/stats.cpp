#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace daop {

Summary summarize(std::span<const double> values) {
  DAOP_CHECK(!values.empty());
  Summary s;
  s.n = static_cast<int>(values.size());
  s.min = values[0];
  s.max = values[0];
  double sum = 0.0;
  for (double v : values) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = sum / s.n;
  if (s.n >= 2) {
    double ss = 0.0;
    for (double v : values) ss += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(ss / (s.n - 1));
    s.ci95 = 1.96 * s.stddev / std::sqrt(static_cast<double>(s.n));
  }
  s.p50 = percentile(values, 0.50);
  s.p90 = percentile(values, 0.90);
  s.p99 = percentile(values, 0.99);
  return s;
}

double percentile(std::span<const double> values, double p) {
  DAOP_CHECK(!values.empty());
  DAOP_CHECK(p >= 0.0 && p <= 1.0);
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = p * (static_cast<double>(sorted.size()) - 1.0);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace daop
