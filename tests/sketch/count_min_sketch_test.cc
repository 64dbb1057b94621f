#include "sketch/count_min_sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/simd.h"
#include "eval/workloads.h"
#include "sketch/private_sketch.h"

namespace privhp {
namespace {

TEST(CountMinTest, MakeRejectsZeroDimensions) {
  EXPECT_FALSE(CountMinSketch::Make(0, 4, 1).ok());
  EXPECT_FALSE(CountMinSketch::Make(16, 0, 1).ok());
  EXPECT_TRUE(CountMinSketch::Make(16, 4, 1).ok());
}

TEST(CountMinTest, ExactForFewDistinctKeys) {
  CountMinSketch sketch(1024, 4, 7);
  sketch.Update(1, 5.0);
  sketch.Update(2, 3.0);
  sketch.Update(1, 2.0);
  // With a wide sketch and 2 keys, collisions across all 4 rows are
  // essentially impossible.
  EXPECT_DOUBLE_EQ(sketch.Estimate(1), 7.0);
  EXPECT_DOUBLE_EQ(sketch.Estimate(2), 3.0);
}

TEST(CountMinTest, NeverUnderestimatesWithoutNoise) {
  CountMinSketch sketch(16, 3, 11);
  RandomEngine rng(5);
  std::vector<double> truth(200, 0.0);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t key = rng.UniformInt(200);
    sketch.Update(key, 1.0);
    truth[key] += 1.0;
  }
  for (uint64_t key = 0; key < 200; ++key) {
    EXPECT_GE(sketch.Estimate(key), truth[key] - 1e-9);
  }
}

TEST(CountMinTest, RowSumsEqualTotalWeight) {
  CountMinSketch sketch(32, 5, 13);
  double total = 0.0;
  RandomEngine rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double w = rng.UniformDouble();
    sketch.Update(rng.UniformInt(100), w);
    total += w;
  }
  for (size_t row = 0; row < 5; ++row) {
    EXPECT_NEAR(sketch.RowSum(row), total, 1e-6);
  }
}

TEST(CountMinTest, MemoryScalesWithDimensions) {
  CountMinSketch small(16, 2, 1);
  CountMinSketch large(64, 8, 1);
  EXPECT_GT(large.MemoryBytes(), small.MemoryBytes());
  EXPECT_EQ(small.L1Sensitivity(), 2u);
}

// Privatize draws Laplace noise into every cell of the table.
TEST(CountMinTest, LaplaceNoiseShiftsCells) {
  CountMinSketch a(16, 2, 3);
  RandomEngine rng(9);
  const PrivateCountMinSketch b =
      PrivateCountMinSketch::Privatize(a, 2.0, &rng).ValueOrDie();
  int differing = 0;
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 16; ++c) {
      if (a.CellValue(r, c) != b.base().CellValue(r, c)) ++differing;
    }
  }
  EXPECT_EQ(differing, 32);
}

// Lemma 4 sweep: with width 2w and depth j, the expected overestimate is
// at most (||tail_w||_1 + 2^{-j+1} ||v||_1) / w. Parameters: (w, j, zipf
// exponent).
class Lemma4Test
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(Lemma4Test, ExpectedErrorWithinBound) {
  const auto [w, j, zipf] = GetParam();
  const size_t num_keys = 512;
  const size_t n = 20000;
  const std::vector<double> masses = ZipfMasses(num_keys, zipf);

  // Average the estimation error over several hash seeds (the expectation
  // in Lemma 4 is over the hash draw).
  double total_err = 0.0;
  size_t measured = 0;
  const int kSeeds = 8;
  std::vector<double> truth(num_keys);
  for (size_t key = 0; key < num_keys; ++key) {
    truth[key] = masses[key] * static_cast<double>(n);
  }
  double l1 = 0.0;
  for (double t : truth) l1 += t;
  std::vector<double> sorted = truth;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  double tail_w = 0.0;
  for (size_t i = w; i < sorted.size(); ++i) tail_w += sorted[i];

  for (int seed = 0; seed < kSeeds; ++seed) {
    CountMinSketch sketch(2 * w, j, 1000 + seed);
    for (size_t key = 0; key < num_keys; ++key) {
      sketch.Update(key, truth[key]);
    }
    for (size_t key = 0; key < num_keys; key += 7) {
      total_err += sketch.Estimate(key) - truth[key];
      ++measured;
    }
  }
  const double mean_err = total_err / static_cast<double>(measured);
  const double bound =
      (tail_w + std::ldexp(2.0, -j) * l1) / static_cast<double>(w);
  // Allow 1.5x slack: the bound is an expectation, we average finitely
  // many seeds.
  EXPECT_LE(mean_err, 1.5 * bound + 1e-9)
      << "w=" << w << " j=" << j << " zipf=" << zipf;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Lemma4Test,
    ::testing::Combine(::testing::Values(8, 32, 64),
                       ::testing::Values(3, 6, 10),
                       ::testing::Values(0.5, 1.1, 2.0)));

// Linearity: merging two sketches of disjoint streams equals sketching
// the concatenated stream, cell for cell.
TEST(CountMinSketchTest, MergeEqualsCombinedStream) {
  CountMinSketch a = CountMinSketch::Make(32, 4, 9).ValueOrDie();
  CountMinSketch b = CountMinSketch::Make(32, 4, 9).ValueOrDie();
  CountMinSketch combined = CountMinSketch::Make(32, 4, 9).ValueOrDie();
  for (uint64_t key = 0; key < 50; ++key) {
    a.Update(key % 11, 1.0);
    combined.Update(key % 11, 1.0);
  }
  for (uint64_t key = 0; key < 80; ++key) {
    b.Update(key % 7, 2.0);
    combined.Update(key % 7, 2.0);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  for (size_t row = 0; row < 4; ++row) {
    for (size_t col = 0; col < 32; ++col) {
      EXPECT_DOUBLE_EQ(a.CellValue(row, col), combined.CellValue(row, col));
    }
  }
}

// UpdateBatch hashes key runs through simd::HashBuckets and then adds in
// key order, so each cell gets exactly the additions per-key Update()
// (which hashes one key at a time, no kernel) makes, in the same order:
// cells match bit for bit at every SIMD tier.
// delta = 0.3 is not exact in binary, so an implementation that folded
// repeated hits into one `delta * hits` add would round differently and
// fail; the noise start (a copy of a released table, Laplace scale
// 5 / 2.5 = 2) makes every cell a non-trivial running sum.
TEST(CountMinSketchTest, UpdateBatchMatchesPerKeyUpdateAtEverySimdLevel) {
  RandomEngine rng(21);
  std::vector<uint64_t> keys(1000);  // several 256-key runs plus a tail
  for (uint64_t& key : keys) key = Mix64(rng.UniformInt(300));
  for (size_t width : {size_t{1}, size_t{64}, size_t{48}}) {
    for (double delta : {1.0, 0.3}) {
      RandomEngine noise_rng(4);
      CountMinSketch reference =
          PrivateCountMinSketch::Privatize(CountMinSketch(width, 5, 17), 2.5,
                                           &noise_rng)
              .ValueOrDie()
              .base();
      CountMinSketch start = reference;
      for (uint64_t key : keys) reference.Update(key, delta);
      for (int level = 0; level <= static_cast<int>(DetectedSimdLevel());
           ++level) {
        ForceSimdLevel(static_cast<SimdLevel>(level));
        CountMinSketch batched = start;
        batched.UpdateBatch(keys.data(), keys.size(), delta);
        ClearForcedSimdLevel();
        for (size_t row = 0; row < 5; ++row) {
          for (size_t col = 0; col < width; ++col) {
            ASSERT_EQ(batched.CellValue(row, col),
                      reference.CellValue(row, col))
                << "level " << SimdLevelName(static_cast<SimdLevel>(level))
                << ", width " << width << ", delta " << delta << ", cell ("
                << row << ", " << col << ")";
          }
        }
      }
    }
  }
}

// AddCounts is UpdateBatch's run-aggregated form: on an integer-valued
// sketch one add of c equals c adds of 1.0, so it must match counts[i]
// repeated Update(keys[i], 1.0) calls cell for cell. Widths 64 (hash
// runs + AND) and 48 (the `%` path); counts span 1..4096; keys repeat
// within the input, as merged runs of different leaves do.
TEST(CountMinSketchTest, AddCountsMatchesRepeatedUpdate) {
  RandomEngine rng(33);
  std::vector<uint64_t> keys(700);  // several 256-key runs plus a tail
  std::vector<double> counts(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = Mix64(rng.UniformInt(200));
    counts[i] = static_cast<double>(1 + rng.UniformInt(4096));
  }
  counts[0] = 1;
  counts[1] = 4096;
  keys[1] = keys[0];
  for (size_t width : {size_t{64}, size_t{48}}) {
    CountMinSketch reference(width, 5, 23);
    for (size_t i = 0; i < keys.size(); ++i) {
      for (double c = 0; c < counts[i]; ++c) reference.Update(keys[i], 1.0);
    }
    for (int level = 0; level <= static_cast<int>(DetectedSimdLevel());
         ++level) {
      ForceSimdLevel(static_cast<SimdLevel>(level));
      CountMinSketch grouped(width, 5, 23);
      grouped.AddCounts(keys.data(), counts.data(), keys.size());
      ClearForcedSimdLevel();
      for (size_t row = 0; row < 5; ++row) {
        for (size_t col = 0; col < width; ++col) {
          ASSERT_EQ(grouped.CellValue(row, col), reference.CellValue(row, col))
              << "level " << SimdLevelName(static_cast<SimdLevel>(level))
              << ", width " << width << ", cell (" << row << ", " << col
              << ")";
        }
      }
    }
  }
}

// EstimateBatch is Estimate's batched form: a per-row minimum taken in
// the same row order, so on a released sketch (fractional cells, some
// negative) every estimate must match bit for bit at every SIMD tier.
// Width 64 takes the hash-run path, width 48 the per-key fallback.
TEST(CountMinSketchTest, EstimateBatchMatchesEstimateAtEverySimdLevel) {
  RandomEngine rng(45);
  std::vector<uint64_t> keys(1000);  // several 256-key runs plus a tail
  for (uint64_t& key : keys) key = Mix64(rng.UniformInt(400));
  for (size_t width : {size_t{64}, size_t{48}}) {
    CountMinSketch plain(width, 7, 29);
    for (size_t i = 0; i < 300; ++i) plain.Update(keys[i], 1.0);
    RandomEngine noise_rng(8);
    const PrivateCountMinSketch sketch =
        PrivateCountMinSketch::Privatize(std::move(plain), 7.0 / 3.0,
                                         &noise_rng)
            .ValueOrDie();
    for (int level = 0; level <= static_cast<int>(DetectedSimdLevel());
         ++level) {
      ForceSimdLevel(static_cast<SimdLevel>(level));
      std::vector<double> batched(keys.size());
      sketch.EstimateBatch(keys.data(), keys.size(), batched.data());
      ClearForcedSimdLevel();
      for (size_t i = 0; i < keys.size(); ++i) {
        const double scalar = sketch.Estimate(keys[i]);
        ASSERT_EQ(std::memcmp(&batched[i], &scalar, sizeof(double)), 0)
            << "level " << SimdLevelName(static_cast<SimdLevel>(level))
            << ", width " << width << ", key " << i << ": " << batched[i]
            << " vs " << scalar;
      }
    }
  }
}

TEST(CountMinSketchTest, MergeRejectsShapeMismatch) {
  CountMinSketch a = CountMinSketch::Make(32, 4, 9).ValueOrDie();
  CountMinSketch narrow = CountMinSketch::Make(16, 4, 9).ValueOrDie();
  CountMinSketch shallow = CountMinSketch::Make(32, 3, 9).ValueOrDie();
  EXPECT_TRUE(a.Merge(narrow).IsInvalidArgument());
  EXPECT_TRUE(a.Merge(shallow).IsInvalidArgument());
}

TEST(CountMinSketchTest, MergeRejectsSeedMismatch) {
  CountMinSketch a = CountMinSketch::Make(32, 4, 9).ValueOrDie();
  CountMinSketch other = CountMinSketch::Make(32, 4, 10).ValueOrDie();
  EXPECT_TRUE(a.Merge(other).IsInvalidArgument());
  EXPECT_EQ(a.seed(), 9u);
  EXPECT_EQ(other.seed(), 10u);
}

}  // namespace
}  // namespace privhp
