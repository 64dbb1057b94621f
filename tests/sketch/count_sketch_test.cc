#include "sketch/count_sketch.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace privhp {
namespace {

TEST(CountSketchTest, MakeRejectsZeroDimensions) {
  EXPECT_FALSE(CountSketch::Make(0, 4, 1).ok());
  EXPECT_FALSE(CountSketch::Make(16, 0, 1).ok());
  EXPECT_TRUE(CountSketch::Make(16, 5, 1).ok());
}

TEST(CountSketchTest, ExactForFewDistinctKeys) {
  CountSketch sketch(512, 5, 3);
  sketch.Update(10, 4.0);
  sketch.Update(11, 9.0);
  EXPECT_NEAR(sketch.Estimate(10), 4.0, 1e-9);
  EXPECT_NEAR(sketch.Estimate(11), 9.0, 1e-9);
  EXPECT_NEAR(sketch.Estimate(999), 0.0, 1e-9);
}

TEST(CountSketchTest, SignedUpdatesCancel) {
  CountSketch sketch(64, 5, 7);
  sketch.Update(42, 10.0);
  sketch.Update(42, -10.0);
  EXPECT_NEAR(sketch.Estimate(42), 0.0, 1e-9);
}

TEST(CountSketchTest, ApproximatelyUnbiasedUnderLoad) {
  // Many colliding keys: the median estimate should track the true count
  // far better than the total load suggests.
  RandomEngine rng(13);
  const int trials = 30;
  double err_sum = 0.0;
  for (int t = 0; t < trials; ++t) {
    CountSketch sketch(64, 7, 100 + t);
    for (uint64_t key = 0; key < 2000; ++key) sketch.Update(key, 1.0);
    sketch.Update(77, 50.0);
    err_sum += sketch.Estimate(77) - 51.0;
  }
  // Unbiased up to median-vs-mean effects: average error well under the
  // per-row load of 2000/64 ~ 31.
  EXPECT_LT(std::abs(err_sum / trials), 10.0);
}

TEST(CountSketchTest, MemoryAndSensitivity) {
  CountSketch sketch(32, 6, 1);
  EXPECT_EQ(sketch.L1Sensitivity(), 6u);
  EXPECT_GE(sketch.MemoryBytes(), 32 * 6 * sizeof(double));
}

}  // namespace
}  // namespace privhp
