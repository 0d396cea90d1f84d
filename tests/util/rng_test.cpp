#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

namespace lpm::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a.next_u64());
  a.reseed(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), first[i]);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng r(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextBelowZeroThrows) {
  Rng r(3);
  EXPECT_THROW(r.next_below(0), LpmError);
}

TEST(Rng, NextInInclusiveRange) {
  Rng r(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const auto v = r.next_in(10, 13);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 13u);
    saw_lo |= v == 10;
    saw_hi |= v == 13;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextInBadRangeThrows) {
  Rng r(5);
  EXPECT_THROW(r.next_in(4, 3), LpmError);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NextBoolEdgeProbabilities) {
  Rng r(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.next_bool(0.0));
    EXPECT_TRUE(r.next_bool(1.0));
  }
}

TEST(Rng, NextBoolFrequency) {
  Rng r(13);
  int yes = 0;
  for (int i = 0; i < 50000; ++i) {
    if (r.next_bool(0.3)) ++yes;
  }
  EXPECT_NEAR(yes / 50000.0, 0.3, 0.02);
}

/// The probabilities at which a threshold draw could part from next_bool():
/// both clamps and their neighbours, the smallest subnormal, the
/// probability of one 53-bit step and its neighbours, an exact half, and
/// the largest double below one.
std::vector<double> chance_edge_probabilities() {
  const double step = 0x1.0p-53;
  return {-1.5,
          -std::numeric_limits<double>::denorm_min(),
          0.0,
          std::numeric_limits<double>::denorm_min(),
          std::nextafter(step, 0.0),
          step,
          std::nextafter(step, 1.0),
          0.3,
          0.5,
          1.0 - step,
          1.0,
          std::nextafter(1.0, 2.0),
          2.5};
}

TEST(Rng, ChanceThresholds) {
  const double step = 0x1.0p-53;
  const std::uint64_t always = Rng::Chance::kAlways;
  EXPECT_EQ(Rng::chance(-1.5).threshold, 0u);
  EXPECT_EQ(Rng::chance(0.0).threshold, 0u);
  EXPECT_EQ(Rng::chance(std::numeric_limits<double>::denorm_min()).threshold, 1u);
  EXPECT_EQ(Rng::chance(std::nextafter(step, 0.0)).threshold, 1u);
  EXPECT_EQ(Rng::chance(step).threshold, 1u);
  EXPECT_EQ(Rng::chance(std::nextafter(step, 1.0)).threshold, 2u);
  EXPECT_EQ(Rng::chance(0.5).threshold, always / 2);
  EXPECT_EQ(Rng::chance(1.0 - step).threshold, always - 1);
  EXPECT_EQ(Rng::chance(1.0).threshold, always);
  EXPECT_EQ(Rng::chance(2.5).threshold, always);
}

TEST(Rng, ChanceComparisonMatchesNextDoubleAtTheThreshold) {
  // A draw k = next_u64() >> 11 succeeds in next_bool() when
  // k * 2^-53 < p and in hit() when k < threshold. Check both sides of the
  // threshold, where a rounding slip would show, for every p in (0, 1).
  for (const double p : chance_edge_probabilities()) {
    if (p <= 0.0 || p >= 1.0) continue;
    const std::uint64_t t = Rng::chance(p).threshold;
    for (std::uint64_t k : {t - 1, t, t + 1, std::uint64_t{0},
                            Rng::Chance::kAlways - 1}) {
      if (k >= Rng::Chance::kAlways) continue;
      EXPECT_EQ(static_cast<double>(k) * 0x1.0p-53 < p, k < t)
          << "p=" << p << " k=" << k;
    }
  }
}

TEST(Rng, HitMatchesNextBoolDrawForDraw) {
  for (const double p : chance_edge_probabilities()) {
    Rng a(77);
    Rng b(77);
    const Rng::Chance c = Rng::chance(p);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(a.hit(c), b.next_bool(p)) << "p=" << p << " draw " << i;
    }
    // Same number of draws: the two streams continue identically.
    for (int i = 0; i < 4; ++i) ASSERT_EQ(a.next_u64(), b.next_u64()) << "p=" << p;
  }
}

TEST(Rng, HitClampsWithoutDrawing) {
  Rng a(5);
  Rng b(5);
  EXPECT_FALSE(a.hit(Rng::chance(0.0)));
  EXPECT_FALSE(a.hit(Rng::chance(-3.0)));
  EXPECT_TRUE(a.hit(Rng::chance(1.0)));
  EXPECT_TRUE(a.hit(Rng::chance(7.0)));
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, GeometricMeanMatchesTheory) {
  Rng r(17);
  const double p = 0.25;
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(r.next_geometric(p));
  }
  // E[failures before success] = (1-p)/p = 3.
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, GeometricPOneIsZero) {
  Rng r(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.next_geometric(1.0), 0u);
}

TEST(Rng, GeometricInvalidThrows) {
  Rng r(17);
  EXPECT_THROW(r.next_geometric(0.0), LpmError);
  EXPECT_THROW(r.next_geometric(1.5), LpmError);
}

TEST(Rng, ExponentialMeanMatchesTheory) {
  Rng r(19);
  const double lambda = 2.0;
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.next_exponential(lambda);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NormalMomentsMatchTheory) {
  Rng r(23);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = r.next_normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(29);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(ZipfSampler, UniformWhenSkewZero) {
  Rng r(31);
  ZipfSampler z(10, 0.0);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(r)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(ZipfSampler, SkewFavorsLowRanks) {
  Rng r(37);
  ZipfSampler z(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[z.sample(r)];
  EXPECT_GT(counts[0], counts[9]);
  EXPECT_GT(counts[9], counts[90]);
}

TEST(ZipfSampler, SingleElement) {
  Rng r(41);
  ZipfSampler z(1, 2.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.sample(r), 0u);
}

TEST(ZipfSampler, InvalidArgsThrow) {
  EXPECT_THROW(ZipfSampler(0, 1.0), LpmError);
  EXPECT_THROW(ZipfSampler(4, -1.0), LpmError);
}

TEST(DiscreteSampler, MatchesWeights) {
  Rng r(43);
  DiscreteSampler d({1.0, 3.0, 0.0, 6.0});
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[d.sample(r)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(DiscreteSampler, InvalidWeightsThrow) {
  EXPECT_THROW(DiscreteSampler({}), LpmError);
  EXPECT_THROW(DiscreteSampler({0.0, 0.0}), LpmError);
  EXPECT_THROW(DiscreteSampler({1.0, -1.0}), LpmError);
}

}  // namespace
}  // namespace lpm::util
