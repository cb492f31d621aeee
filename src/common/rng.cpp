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

int Rng::uniform_int(int lo, int hi) {
  DAOP_CHECK_LE(lo, hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - lo + 1;
  return lo + static_cast<int>(next_u64() % span);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

Rng Rng::fork(std::uint64_t stream_id) const {
  // Mix the original seed with the stream id through splitmix so children
  // with adjacent ids are decorrelated.
  std::uint64_t m = seed_ ^ (0xD1B54A32D192ED03ULL * (stream_id + 1));
  const std::uint64_t child_seed = splitmix64(m);
  return Rng(child_seed);
}

}  // namespace daop
