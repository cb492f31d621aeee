// Deterministic random number generation for all DAOP experiments.
//
// Every source of randomness in the library flows through daop::Rng, seeded
// explicitly, so that every experiment in the paper reproduction is
// bit-reproducible across runs and platforms. The generator is xoshiro256**
// seeded via SplitMix64 (both public-domain algorithms).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace daop {

/// 64-bit deterministic PRNG (xoshiro256**) with distribution helpers.
///
/// Rng is a value type: copying it forks the stream at its current state.
/// Use fork(stream_id) to derive statistically independent child streams,
/// e.g. one per sequence or per layer, without coupling consumption order.
class Rng {
 public:
  /// Seeds the generator. Two Rng instances with equal seeds produce
  /// identical streams.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 high-quality mantissa bits.
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int uniform_int(int lo, int hi);

  /// Standard normal via Box-Muller (cached second variate).
  double normal() {
    if (has_cached_normal_) {
      has_cached_normal_ = false;
      return cached_normal_;
    }
    double u1 = 0.0;
    do {
      u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_normal_ = r * std::sin(theta);
    has_cached_normal_ = true;
    return r * std::cos(theta);
  }

  /// Normal with given mean / stddev.
  double normal(double mean, double stddev);

  /// Skips the next `n` Box-Muller pairs: draws exactly the uniforms that
  /// 2n normal() calls starting on a pair would, computes no variate, and
  /// drops a cached one.
  void skip_normal_pairs(std::uint64_t n) {
    has_cached_normal_ = false;
    for (; n > 0; --n) {
      // uniform() <= 0.0 exactly when these 53 bits are zero.
      while ((next_u64() >> 11) == 0) {
      }
      next_u64();
    }
  }

  /// Gamma(alpha, 1) via Marsaglia-Tsang; alpha > 0.
  double gamma(double alpha);

  /// Dirichlet sample with symmetric concentration `alpha` over `k` bins.
  std::vector<double> dirichlet_symmetric(double alpha, int k);

  /// Dirichlet sample with per-bin concentrations.
  std::vector<double> dirichlet(std::span<const double> alpha);

  /// Samples an index proportionally to `weights` (need not be normalized,
  /// must be non-negative with positive sum).
  int categorical(std::span<const double> weights);

  /// Derives an independent child stream; deterministic in (parent seed,
  /// stream id) and unaffected by how much the parent has been consumed.
  Rng fork(std::uint64_t stream_id) const;

  /// Complete generator state, for crash-consistent checkpointing: restoring
  /// a saved State resumes the stream at exactly the draw it was suspended
  /// on (including the Box-Muller cached variate).
  struct State {
    std::array<std::uint64_t, 4> s{};
    std::uint64_t seed = 0;
    bool has_cached_normal = false;
    double cached_normal = 0.0;
  };
  State save_state() const {
    return State{state_, seed_, has_cached_normal_, cached_normal_};
  }
  void load_state(const State& st) {
    state_ = st.s;
    seed_ = st.seed;
    has_cached_normal_ = st.has_cached_normal;
    cached_normal_ = st.cached_normal;
  }

  /// The four xoshiro256** words alone: the stream position without the
  /// fork seed or a cached variate. Cheap to record many of.
  using Words = std::array<std::uint64_t, 4>;
  Words words() const { return state_; }

  /// Moves the stream to recorded words without seeding: the next draw is
  /// the one that followed words(), and the next normal() starts a fresh
  /// Box-Muller pair. The fork seed is kept.
  void seek(const Words& w) {
    state_ = w;
    has_cached_normal_ = false;
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (int i = static_cast<int>(v.size()) - 1; i > 0; --i) {
      const int j = uniform_int(0, i);
      std::swap(v[static_cast<std::size_t>(i)], v[static_cast<std::size_t>(j)]);
    }
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  std::uint64_t seed_ = 0;  // retained so fork() is consumption-independent
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace daop
