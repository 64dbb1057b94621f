#include "common/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

namespace privhp {
namespace {

TEST(RandomTest, SameSeedSameStream) {
  RandomEngine a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RandomTest, DifferentSeedsDiverge) {
  RandomEngine a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RandomTest, UniformDoubleInUnitInterval) {
  RandomEngine rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RandomTest, UniformDoubleMeanNearHalf) {
  RandomEngine rng(7);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RandomTest, UniformIntRespectsBound) {
  RandomEngine rng(11);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.UniformInt(17), 17u);
}

TEST(RandomTest, UniformIntCoversAllResidues) {
  RandomEngine rng(13);
  std::unordered_set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RandomTest, LaplaceZeroMeanAndScale) {
  RandomEngine rng(17);
  const double scale = 2.5;
  const int n = 200000;
  double sum = 0.0, abs_sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Laplace(scale);
    sum += x;
    abs_sum += std::abs(x);
  }
  // E[X] = 0; E[|X|] = scale.
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(abs_sum / n, scale, 0.05);
}

TEST(RandomTest, LaplaceVarianceIsTwoScaleSquared) {
  RandomEngine rng(19);
  const double scale = 1.5;
  const int n = 300000;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Laplace(scale);
    sq += x * x;
  }
  EXPECT_NEAR(sq / n, 2.0 * scale * scale, 0.15);
}

TEST(RandomTest, ExponentialMeanMatchesScale) {
  RandomEngine rng(23);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Exponential(3.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(RandomTest, GaussianMomentsMatch) {
  RandomEngine rng(29);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Gaussian(1.0, 2.0);
    sum += x;
    sq += (x - 1.0) * (x - 1.0);
  }
  EXPECT_NEAR(sum / n, 1.0, 0.03);
  EXPECT_NEAR(sq / n, 4.0, 0.1);
}

TEST(RandomTest, BernoulliFrequency) {
  RandomEngine rng(37);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RandomTest, ForkedStreamsAreIndependent) {
  RandomEngine parent(41);
  RandomEngine c1 = parent.Fork(1);
  RandomEngine c2 = parent.Fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1.NextUint64() == c2.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RandomTest, SampleDistinctReturnsDistinct) {
  RandomEngine rng(43);
  const auto sample = SampleDistinct(&rng, 100, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::unordered_set<uint64_t> set(sample.begin(), sample.end());
  EXPECT_EQ(set.size(), 20u);
  for (uint64_t v : sample) EXPECT_LT(v, 100u);
}

TEST(RandomTest, SampleDistinctFullUniverse) {
  RandomEngine rng(47);
  const auto sample = SampleDistinct(&rng, 10, 10);
  std::unordered_set<uint64_t> set(sample.begin(), sample.end());
  EXPECT_EQ(set.size(), 10u);
}

TEST(Mix64Test, DeterministicAndSpreading) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(42), Mix64(43));
  // Nearby inputs should differ in many bits.
  const uint64_t diff = Mix64(1000) ^ Mix64(1001);
  int bits = 0;
  for (int i = 0; i < 64; ++i) bits += (diff >> i) & 1;
  EXPECT_GT(bits, 16);
}

}  // namespace
}  // namespace privhp
