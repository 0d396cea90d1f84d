// Deterministic pseudo-random number generation for workload synthesis.
//
// The simulator must be reproducible: every stochastic choice flows through
// an explicitly seeded Rng. We use xoshiro256** (Blackman & Vigna), which is
// fast, has a 2^256-1 period, and passes BigCrush; std::mt19937_64 would work
// too but is slower and its distributions are not portable across standard
// library implementations. All distributions here are hand-rolled so results
// are bit-identical on every platform.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace lpm::util {

/// xoshiro256** seeded via splitmix64. Copyable (cheap state) so generators
/// can fork independent streams deterministically.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initializes the state from a 64-bit seed via splitmix64.
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be > 0. Uses rejection sampling to
  /// avoid modulo bias.
  std::uint64_t next_below(std::uint64_t bound) {
    require(bound > 0, "Rng::next_below: bound must be positive");
    // A power of two has no biased tail ((2^64 - bound) mod bound == 0), so
    // the first draw is always accepted and the modulo is a mask: the same
    // value and the same stream advance as the general path, without the
    // two 64-bit divisions.
    if ((bound & (bound - 1)) == 0) return next_u64() & (bound - 1);
    // Lemire-style rejection: accept unless in the biased tail.
    const std::uint64_t threshold = (~bound + 1) % bound;  // (2^64 - bound) mod bound
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) {
        return r % bound;
      }
    }
  }

  /// Uniform in [lo, hi] inclusive. Requires lo <= hi.
  std::uint64_t next_in(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  double next_double() {
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool next_bool(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// A Bernoulli probability held as an integer threshold on the 53 bits a
  /// draw uses; build it once with chance() and draw with hit().
  struct Chance {
    static constexpr std::uint64_t kAlways = std::uint64_t{1} << 53;
    std::uint64_t threshold = 0;  ///< 0 = never, kAlways = always (no draw)
  };

  /// The threshold of probability p, clamped to [0,1] like next_bool(). For
  /// p in (0, 1) it is ceil(p * 2^53), which lies in [1, 2^53 - 1]. NaN is
  /// not supported (WorkloadProfile::validate rejects it).
  [[nodiscard]] static Chance chance(double p) {
    if (p <= 0.0) return Chance{0};
    if (p >= 1.0) return Chance{Chance::kAlways};
    return Chance{static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53))};
  }

  /// next_bool(p) for c == chance(p): the same result and the same stream
  /// advance on every draw. With k = next_u64() >> 11, next_double() < p is
  /// k * 2^-53 < p, i.e. k < p * 2^53 (scaling by a power of two is exact),
  /// i.e. k < ceil(p * 2^53) for an integer k; so the draw needs no
  /// int-to-double convert or multiply.
  bool hit(Chance c) {
    if (c.threshold == 0) return false;
    if (c.threshold == Chance::kAlways) return true;
    return (next_u64() >> 11) < c.threshold;
  }

  /// Geometric distribution: number of failures before first success,
  /// success probability p in (0, 1].
  std::uint64_t next_geometric(double p);

  /// Exponential with rate lambda > 0.
  double next_exponential(double lambda);

  /// Standard normal via Box-Muller (no cached spare: keeps state small).
  double next_normal(double mean = 0.0, double stddev = 1.0);

  /// Forks an independent stream: hashes this stream's next output with the
  /// given tag so sibling streams do not correlate.
  Rng fork(std::uint64_t tag);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
};

/// Zipf(N, s) sampler over {0, .., n-1} using precomputed CDF + binary
/// search. Heavy ranks are the *low* indices, matching the usual convention
/// for modelling temporal locality (rank-0 block is the hottest).
class ZipfSampler {
 public:
  /// n must be >= 1; s >= 0 (s == 0 degenerates to uniform).
  ZipfSampler(std::size_t n, double s);

  [[nodiscard]] std::size_t sample(Rng& rng) const;
  [[nodiscard]] std::size_t size() const { return cdf_.size(); }
  [[nodiscard]] double skew() const { return s_; }

 private:
  std::vector<double> cdf_;
  double s_;
};

/// Samples an index from a discrete distribution given by non-negative
/// weights (need not be normalized). Precomputes a CDF.
class DiscreteSampler {
 public:
  explicit DiscreteSampler(const std::vector<double>& weights);

  [[nodiscard]] std::size_t sample(Rng& rng) const;
  [[nodiscard]] std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace lpm::util
