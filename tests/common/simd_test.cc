// The SIMD kernel contract: every kernel tier (scalar / AVX2 / AVX-512)
// produces BIT-IDENTICAL output — the vector units only use add, sub,
// mul, div and compares, all correctly rounded per IEEE-754 — and the
// dispatch override ladder (ForceSimdLevel over PRIVHP_SIMD_LEVEL over
// CPUID) behaves as documented. The distribution gate then checks the
// end-to-end property the kernels exist for: the batched in-cell
// sampling step still draws uniformly within each cell.

#include "common/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "domain/hypercube_domain.h"
#include "hierarchy/compiled_sampler.h"
#include "hierarchy/partition_tree.h"
#include "testing/stats.h"

namespace privhp {
namespace {

// Restores the dispatch override even when an ASSERT unwinds a test.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) { ForceSimdLevel(level); }
  ~ScopedSimdLevel() { ClearForcedSimdLevel(); }
};

std::vector<SimdLevel> RunnableLevels() {
  std::vector<SimdLevel> levels;
  for (int l = 0; l <= static_cast<int>(DetectedSimdLevel()); ++l) {
    levels.push_back(static_cast<SimdLevel>(l));
  }
  return levels;
}

TEST(SimdDispatchTest, ForceClampsToDetectedLevel) {
  // Forcing wider than the hardware supports must clamp, never dispatch
  // to an illegal instruction.
  ScopedSimdLevel force(SimdLevel::kAvx512);
  EXPECT_LE(static_cast<int>(ActiveSimdLevel()),
            static_cast<int>(DetectedSimdLevel()));
}

TEST(SimdDispatchTest, ForceScalarWinsOverDetection) {
  ScopedSimdLevel force(SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
}

TEST(SimdDispatchTest, ClearRestoresDetection) {
  ForceSimdLevel(SimdLevel::kScalar);
  ClearForcedSimdLevel();
  // Without PRIVHP_SIMD_LEVEL in the environment this is the detected
  // level; with it, the env clamp — either way, not stuck at scalar
  // unless that IS the binary's level.
  EXPECT_GE(static_cast<int>(ActiveSimdLevel()), 0);
}

TEST(SimdDispatchTest, LevelNamesRoundTrip) {
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2,
                          SimdLevel::kAvx512}) {
    SimdLevel parsed;
    ASSERT_TRUE(ParseSimdLevel(SimdLevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  SimdLevel ignored;
  EXPECT_FALSE(ParseSimdLevel("sse9", &ignored));
  EXPECT_FALSE(ParseSimdLevel("", &ignored));
}

// ---------------------------------------------------------------------
// Kernel bit-equality across tiers. Sizes deliberately include awkward
// tails (primes, one element, zero) so the vector main loops AND their
// scalar remainders are both exercised.
// ---------------------------------------------------------------------

class SimdKernelTest : public ::testing::TestWithParam<int> {
 protected:
  int dim() const { return GetParam(); }
  // tile = lcm(dim, 8): the pattern period every caller uses.
  size_t tile() const {
    size_t t = static_cast<size_t>(dim());
    while (t % 8 != 0) t += static_cast<size_t>(dim());
    return t;
  }
};

TEST_P(SimdKernelTest, ScaledCutPositionsBitIdenticalAcrossLevels) {
  const size_t t = tile();
  std::vector<double> lo_pat(t), ext_pat(t), cells_pat(t);
  RandomEngine rng(91);
  for (size_t k = 0; k < t; ++k) {
    lo_pat[k] = rng.UniformDouble(-2.0, 0.0);
    ext_pat[k] = rng.UniformDouble(0.5, 3.0);
    cells_pat[k] = static_cast<double>(uint64_t{1} << (3 + k % 9));
  }
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                   size_t{257}, size_t{1024}, size_t{1031}}) {
    std::vector<double> x(n);
    for (double& v : x) v = rng.UniformDouble(-2.0, 1.5);
    std::vector<double> reference(n), out(n);
    {
      ScopedSimdLevel force(SimdLevel::kScalar);
      simd::ScaledCutPositions(x.data(), n, lo_pat.data(), ext_pat.data(),
                               cells_pat.data(), t, reference.data());
    }
    for (SimdLevel level : RunnableLevels()) {
      ScopedSimdLevel force(level);
      std::fill(out.begin(), out.end(), -1.0);
      simd::ScaledCutPositions(x.data(), n, lo_pat.data(), ext_pat.data(),
                               cells_pat.data(), t, out.data());
      // memcmp with null pointers is UB even at size 0 (empty vectors
      // may hand back nullptr), so skip the n == 0 case explicitly.
      ASSERT_TRUE(n == 0 || std::memcmp(out.data(), reference.data(),
                                        n * sizeof(double)) == 0)
          << "level " << SimdLevelName(level) << ", n=" << n;
    }
  }
}

TEST_P(SimdKernelTest, InCellTransformBitIdenticalAcrossLevels) {
  const size_t d = static_cast<size_t>(dim());
  const size_t num_slots = 13;
  std::vector<double> lo_tab(num_slots * d), ext_tab(num_slots * d);
  RandomEngine rng(92);
  for (size_t i = 0; i < num_slots * d; ++i) {
    lo_tab[i] = rng.UniformDouble(-1.0, 1.0);
    ext_tab[i] = rng.UniformDouble(0.0, 0.5);
  }
  for (size_t m : {size_t{0}, size_t{1}, size_t{5}, size_t{64},
                   size_t{101}, size_t{1000}}) {
    std::vector<uint32_t> slots(m);
    std::vector<double> draws(m * d);
    for (uint32_t& s : slots) {
      s = static_cast<uint32_t>(rng.UniformInt(num_slots));
    }
    for (double& u : draws) u = rng.UniformDouble();
    std::vector<double> reference = draws;
    {
      ScopedSimdLevel force(SimdLevel::kScalar);
      simd::InCellTransform(lo_tab.data(), ext_tab.data(), slots.data(),
                            dim(), m, reference.data());
    }
    for (SimdLevel level : RunnableLevels()) {
      ScopedSimdLevel force(level);
      std::vector<double> out = draws;
      simd::InCellTransform(lo_tab.data(), ext_tab.data(), slots.data(),
                            dim(), m, out.data());
      ASSERT_TRUE(out.empty() ||
                  std::memcmp(out.data(), reference.data(),
                              out.size() * sizeof(double)) == 0)
          << "level " << SimdLevelName(level) << ", m=" << m;
    }
  }
}

TEST_P(SimdKernelTest, FindOutOfBoundsAgreesAcrossLevels) {
  const size_t t = tile();
  std::vector<double> lo_pat(t, 0.0), hi_pat(t, 1.0);
  RandomEngine rng(93);
  const size_t n = 777;
  std::vector<double> x(n);
  for (double& v : x) v = rng.UniformDouble();

  auto check_all_levels = [&](const std::vector<double>& data,
                              const char* what) {
    size_t reference;
    {
      ScopedSimdLevel force(SimdLevel::kScalar);
      reference = simd::FindOutOfBounds(data.data(), data.size(),
                                        lo_pat.data(), hi_pat.data(), t);
    }
    for (SimdLevel level : RunnableLevels()) {
      ScopedSimdLevel force(level);
      EXPECT_EQ(simd::FindOutOfBounds(data.data(), data.size(),
                                      lo_pat.data(), hi_pat.data(), t),
                reference)
          << "level " << SimdLevelName(level) << ": " << what;
    }
    return reference;
  };

  EXPECT_EQ(check_all_levels(x, "all in bounds"), n);
  for (size_t bad : {size_t{0}, size_t{3}, size_t{511}, n - 1}) {
    for (double v : {-0.5, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
      std::vector<double> corrupted = x;
      corrupted[bad] = v;
      // NaN must FAIL the bounds check (negated-compare form), exactly
      // where the scalar reference says.
      EXPECT_EQ(check_all_levels(corrupted, "corrupted element"), bad);
    }
  }
  // Boundary values are in bounds (Contains() is closed).
  std::vector<double> edges = x;
  edges[0] = 0.0;
  edges[1] = 1.0;
  EXPECT_EQ(check_all_levels(edges, "closed boundary"), n);
}

INSTANTIATE_TEST_SUITE_P(Dims, SimdKernelTest, ::testing::Values(1, 2, 3, 5));

// The hash kernel sees only keys, so it is not swept over dimensions.
// The reference is CompactHash::Hash itself — the hash Estimate() reads
// with — and a sentinel past the end catches a tail written too far.
TEST(SimdKernelTest, HashBucketsBitIdenticalAcrossLevels) {
  const CompactHash hash(77);
  const uint32_t kSentinel = 0xDEADBEEFu;
  RandomEngine rng(94);
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                   size_t{255}, size_t{256}, size_t{257}, size_t{1000}}) {
    std::vector<uint64_t> keys(n);
    for (size_t i = 0; i < n; ++i) {
      switch (i % 4) {
        case 0:
          keys[i] = i % 8 == 0 ? 0 : UINT64_MAX;
          break;
        case 1:
          keys[i] = rng.NextUint64() | (uint64_t{1} << 63);
          break;
        default:
          keys[i] = rng.NextUint64() >> rng.UniformInt(64);
      }
    }
    for (uint64_t width : {uint64_t{1}, uint64_t{2}, uint64_t{64},
                           uint64_t{1} << 20}) {
      const uint64_t mask = width - 1;
      std::vector<uint32_t> reference(n + 1, kSentinel);
      for (size_t i = 0; i < n; ++i) {
        reference[i] = static_cast<uint32_t>(hash.Hash(keys[i]) & mask);
      }
      for (SimdLevel level : RunnableLevels()) {
        ScopedSimdLevel force(level);
        std::vector<uint32_t> out(n + 1, kSentinel);
        simd::HashBuckets(keys.data(), n, hash.multiplier(), hash.salt(),
                          mask, out.data());
        ASSERT_EQ(out, reference) << "level " << SimdLevelName(level)
                                  << ", n=" << n << ", width=" << width;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Distribution gate: the batched sampling path (slot draw + SIMD in-cell
// transform) must still be uniform WITHIN each cell. Bit-equality above
// proves SIMD == scalar; this catches the residual failure mode where
// both are wrong together (e.g. a transposed bounds table). Chi-square
// over a 16-bin histogram per coordinate, 8 seeds.
// ---------------------------------------------------------------------

class SimdDistributionTest : public ::testing::TestWithParam<int> {};

TEST_P(SimdDistributionTest, InCellSamplingIsUniformPerCoordinate) {
  HypercubeDomain domain(2);
  auto tree = PartitionTree::Complete(&domain, 4);
  ASSERT_TRUE(tree.ok());
  // One positive-mass leaf: every sampled point lands in that single
  // cell, so its in-cell offsets must be uniform over the cell box.
  const CellId target{4, 9};
  for (CellId c = target;; c = c.Parent()) {
    tree->node(tree->Find(c)).count = 3.0;
    if (c.level == 0) break;
  }
  CompiledSampler sampler(*tree);
  ASSERT_EQ(sampler.num_cells(), 1u);
  Point cell_lo(2), cell_hi(2);
  ASSERT_TRUE(domain.CellBoundsFor(target.level, target.index,
                                   cell_lo.data(), cell_hi.data()));

  const size_t draws = 16000;
  const int bins = 16;
  RandomEngine rng(8000 + GetParam());
  PointBatch batch;
  ASSERT_TRUE(sampler.SampleTo(draws, &rng, &batch).ok());
  ASSERT_EQ(batch.size(), draws);

  std::vector<double> expected(bins, static_cast<double>(draws) / bins);
  for (int c = 0; c < 2; ++c) {
    std::vector<double> hist(bins, 0.0);
    for (size_t i = 0; i < draws; ++i) {
      const double v = batch.row(i)[c];
      ASSERT_GE(v, cell_lo[c]);
      ASSERT_LT(v, cell_hi[c]);
      const double u = (v - cell_lo[c]) / (cell_hi[c] - cell_lo[c]);
      int bin = static_cast<int>(u * bins);
      if (bin >= bins) bin = bins - 1;
      hist[bin] += 1.0;
    }
    EXPECT_LT(testing::ChiSquare(hist, expected),
              testing::ChiSquareBound(bins - 1))
        << "coordinate " << c << ", seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdDistributionTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace privhp
