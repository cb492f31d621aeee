#include "common/rng.hpp"

#include <cmath>

#include "common/check.hpp"

namespace daop {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
  // xoshiro must not start from the all-zero state; splitmix64 of any seed
  // cannot produce four zeros, but guard anyway.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

double Rng::uniform(double lo, double hi) {
  DAOP_CHECK_LE(lo, hi);
  return lo + (hi - lo) * uniform();
}

int Rng::uniform_int(int lo, int hi) {
  DAOP_CHECK_LE(lo, hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - lo + 1;
  return lo + static_cast<int>(next_u64() % span);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::gamma(double alpha) {
  DAOP_CHECK_GT(alpha, 0.0);
  if (alpha < 1.0) {
    // Boost via Gamma(alpha+1) and the Johnk-style power correction.
    const double u = std::max(uniform(), 1e-300);
    return gamma(alpha + 1.0) * std::pow(u, 1.0 / alpha);
  }
  // Marsaglia-Tsang squeeze method.
  const double d = alpha - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

std::vector<double> Rng::dirichlet_symmetric(double alpha, int k) {
  DAOP_CHECK_GT(k, 0);
  std::vector<double> a(static_cast<std::size_t>(k), alpha);
  return dirichlet(a);
}

std::vector<double> Rng::dirichlet(std::span<const double> alpha) {
  DAOP_CHECK(!alpha.empty());
  std::vector<double> out(alpha.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    out[i] = gamma(alpha[i]);
    sum += out[i];
  }
  if (sum <= 0.0) {
    // Degenerate draw (possible only for extremely small alphas): fall back
    // to uniform so callers always receive a valid distribution.
    const double p = 1.0 / static_cast<double>(out.size());
    for (auto& v : out) v = p;
    return out;
  }
  for (auto& v : out) v /= sum;
  return out;
}

int Rng::categorical(std::span<const double> weights) {
  DAOP_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    DAOP_CHECK_GE(w, 0.0);
    total += w;
  }
  DAOP_CHECK_GT(total, 0.0);
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

Rng Rng::fork(std::uint64_t stream_id) const {
  // Mix the original seed with the stream id through splitmix so children
  // with adjacent ids are decorrelated.
  std::uint64_t m = seed_ ^ (0xD1B54A32D192ED03ULL * (stream_id + 1));
  const std::uint64_t child_seed = splitmix64(m);
  return Rng(child_seed);
}

}  // namespace daop
