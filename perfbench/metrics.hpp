// The benchmark's own arithmetic: percentiles with a support rule, serving
// outcome reductions (goodput, failure fraction) and per-token
// normalisation. Header-only and free of library dependencies so
// selftest.cpp can check it in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie beyond
/// it; otherwise the sample cannot support it.
inline constexpr int kMinSamplesBeyond = 10;

/// Linear interpolation between order statistics at position p*(n-1), the
/// same convention as the library's Summary percentiles.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of empty sample");
  std::sort(v.begin(), v.end());
  const double pos = p * (static_cast<double>(v.size()) - 1.0);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

/// Samples whose rank lies strictly above the percentile position.
inline long long samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const double pos = p * (static_cast<double>(n) - 1.0);
  return static_cast<long long>(n) - 1 -
         static_cast<long long>(std::floor(pos));
}

/// The p-th percentile, or nullopt when fewer than kMinSamplesBeyond
/// samples lie beyond it (the emitter refuses to report it).
inline std::optional<double> supported_percentile(const std::vector<double>& v,
                                                  double p) {
  if (samples_beyond(v.size(), p) < kMinSamplesBeyond) return std::nullopt;
  return percentile(v, p);
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// One attempted request as the client saw it. Unserved requests (shed or
/// dropped) carry no latencies.
struct RequestOutcome {
  bool served = false;
  double ttft_s = 0.0;
  double tpot_s = 0.0;
};

/// Latency limits a served request must meet to count as good.
struct Limits {
  double ttft_s = 0.0;
  double tpot_s = 0.0;
};

/// Requests that were served AND met both limits. An unserved request
/// always misses.
inline long long good_requests(const std::vector<RequestOutcome>& outcomes,
                               const Limits& limits) {
  long long good = 0;
  for (const RequestOutcome& o : outcomes) {
    if (o.served && o.ttft_s <= limits.ttft_s && o.tpot_s <= limits.tpot_s) {
      ++good;
    }
  }
  return good;
}

/// Good requests per simulated second over `duration_s`.
inline double goodput_rps(const std::vector<RequestOutcome>& outcomes,
                          const Limits& limits, double duration_s) {
  if (!(duration_s > 0.0)) throw std::invalid_argument("goodput duration <= 0");
  return static_cast<double>(good_requests(outcomes, limits)) / duration_s;
}

/// (shed + dropped) / attempted.
inline double fail_frac(const std::vector<RequestOutcome>& outcomes) {
  if (outcomes.empty()) throw std::invalid_argument("no attempted requests");
  long long unserved = 0;
  for (const RequestOutcome& o : outcomes) unserved += o.served ? 0 : 1;
  return static_cast<double>(unserved) / static_cast<double>(outcomes.size());
}

/// `total` spread over `tokens` and scaled by `scale` (1e6 for us/tok from
/// seconds, 1e3 for per-ktok from counts read per token, ...). Zero tokens
/// is a harness bug, not a metric.
inline double per_token(double total, long long tokens, double scale = 1.0) {
  if (tokens <= 0) throw std::invalid_argument("per-token base must be > 0");
  return total * scale / static_cast<double>(tokens);
}

/// Requests per reference second: the execution's wall time re-expressed
/// on a host where the reference kernel takes `ref_nominal_s`, given that it
/// took `ref_s` around this execution.
inline double ref_rate(long long requests, double wall_s, double ref_s,
                       double ref_nominal_s) {
  if (!(wall_s > 0.0) || !(ref_s > 0.0) || !(ref_nominal_s > 0.0)) {
    throw std::invalid_argument("ref_rate needs positive times");
  }
  return static_cast<double>(requests) / wall_s * (ref_s / ref_nominal_s);
}

/// Counts per thousand tokens.
inline double per_ktok(long long count, long long tokens) {
  return per_token(static_cast<double>(count), tokens, 1e3);
}

}  // namespace perfbench
