#include "sketch/private_sketch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "common/random.h"

namespace privhp {
namespace {

// The release path: accumulate a plain sketch, then privatize it once.
PrivateCountMinSketch Release(CountMinSketch base, double epsilon,
                              RandomEngine* rng) {
  return PrivateCountMinSketch::Privatize(std::move(base), epsilon, rng)
      .ValueOrDie();
}

TEST(PrivateSketchTest, MakeValidatesArguments) {
  EXPECT_FALSE(CountMinSketch::Make(0, 4, 1).ok());
  EXPECT_FALSE(CountMinSketch::Make(16, 0, 1).ok());
  const CountMinSketch plain(16, 4, 1);
  EXPECT_FALSE(PrivateCountMinSketch::Privatize(plain, 1.0, nullptr).ok());
  // epsilon <= 0 disables noise and needs no rng.
  EXPECT_TRUE(PrivateCountMinSketch::Privatize(plain, 0.0, nullptr).ok());
}

TEST(PrivateSketchTest, PrivatizeValidatesNoiseSource) {
  CountMinSketch base = CountMinSketch::Make(16, 4, 1).ValueOrDie();
  EXPECT_FALSE(
      PrivateCountMinSketch::Privatize(std::move(base), 1.0, nullptr).ok());
}

TEST(PrivateSketchTest, NoiseScaleIsDepthOverEpsilon) {
  RandomEngine rng(2);
  PrivateCountMinSketch sketch = Release(CountMinSketch(16, 8, 1), 2.0, &rng);
  EXPECT_DOUBLE_EQ(sketch.NoiseScale(), 4.0);
  EXPECT_DOUBLE_EQ(sketch.epsilon(), 2.0);
}

TEST(PrivateSketchTest, ZeroEpsilonIsExact) {
  CountMinSketch base(1024, 4, 3);
  base.Update(5, 10.0);
  PrivateCountMinSketch sketch = Release(std::move(base), 0.0, nullptr);
  EXPECT_DOUBLE_EQ(sketch.Estimate(5), 10.0);
}

TEST(PrivateSketchTest, NoisyEstimatesDeviateFromTruth) {
  RandomEngine rng(4);
  CountMinSketch base(64, 4, 5);
  base.Update(7, 100.0);
  PrivateCountMinSketch sketch = Release(std::move(base), 0.5, &rng);
  EXPECT_NE(sketch.Estimate(7), 100.0);
}

// The min-estimator over j cells each carrying Laplace(j/eps) noise:
// its deviation should scale roughly linearly in j/eps. We check the
// ordering across two epsilons.
TEST(PrivateSketchTest, MoreBudgetMeansLessNoise) {
  const int trials = 200;
  double dev_small_eps = 0.0, dev_large_eps = 0.0;
  for (int t = 0; t < trials; ++t) {
    RandomEngine rng_a(1000 + t);
    RandomEngine rng_b(1000 + t);  // same underlying noise stream
    CountMinSketch base(256, 4, 9);
    base.Update(3, 50.0);
    PrivateCountMinSketch tight = Release(base, 4.0, &rng_a);
    PrivateCountMinSketch loose = Release(base, 0.25, &rng_b);
    dev_large_eps += std::abs(tight.Estimate(3) - 50.0);
    dev_small_eps += std::abs(loose.Estimate(3) - 50.0);
  }
  EXPECT_LT(dev_large_eps, dev_small_eps);
}

TEST(PrivateSketchTest, MemoryMatchesBase) {
  RandomEngine rng(6);
  PrivateCountMinSketch sketch = Release(CountMinSketch(32, 4, 7), 1.0, &rng);
  EXPECT_GE(sketch.MemoryBytes(), sketch.base().MemoryBytes());
}

}  // namespace
}  // namespace privhp
