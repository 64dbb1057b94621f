// Window-boundary identity for PrivHPShard::AddBatch. The columnar path
// applies a batch in 16384-point windows. A window of at least
// kMinSortedWindow points whose keys repeat has its leaf keys sorted, and
// every level is updated once per distinct key with the run length; any
// other window updates every level once per point. Either way the
// result must equal per-point Add() bit for bit, in every tree counter
// and every sketch cell. The cases aim at the edges of that scheme:
// batch sizes on either side of the window and of the sort threshold,
// one run spanning a whole window, skewed points beside pairwise
// distinct ones, points on the domain's upper bound (the locate clamp),
// and plans with no sketch levels, only the root counter, a
// non-power-of-two or a wide (4096) sketch width, keys wider than 32
// bits, or a probe level deep enough that distinct points fill a window
// unsorted.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "core/builder.h"
#include "core/planner.h"
#include "core/shard.h"
#include "domain/hypercube_domain.h"

namespace privhp {
namespace {

struct PlanCase {
  const char* name;
  int l_star;
  int l_max;
  uint64_t sketch_width;  // 0 = planner default (2k, a power of two)
};

void PrintTo(const PlanCase& plan, std::ostream* os) { *os << plan.name; }

const PlanCase kPlans[] = {
    {"auto", -1, -1, 0},
    {"no_sketch_levels", 9, 9, 0},
    {"root_only", 0, 12, 0},
    {"width48", 4, 16, 48},
    {"width4096", 4, 16, 4096},
    {"wide_keys", 6, 40, 0},
    {"deep_probe", 15, 23, 0},
};

PrivHPOptions WindowOptions(const PlanCase& plan) {
  PrivHPOptions options;
  options.epsilon = 1.0;
  options.k = 8;
  options.expected_n = size_t{1} << 16;
  options.l_star = plan.l_star;
  options.l_max = plan.l_max;
  options.sketch_width = plan.sketch_width;
  options.seed = 3;
  return options;
}

// Skewed points: most draws repeat one of 40 hot points, so windows hold
// long and short runs side by side.
PointBatch Skewed(int dim, size_t n, uint64_t seed) {
  RandomEngine rng(seed);
  std::vector<Point> hot(40, Point(dim));
  for (Point& p : hot) {
    for (double& c : p) c = rng.UniformDouble();
  }
  PointBatch batch(dim);
  Point x(dim);
  for (size_t i = 0; i < n; ++i) {
    if (rng.UniformInt(4) != 0) {
      batch.AppendPoint(hot[rng.UniformInt(hot.size())]);
      continue;
    }
    for (double& c : x) c = rng.UniformDouble();
    batch.AppendPoint(x);
  }
  return batch;
}

// Pairwise distinct points, spread over the cube by a golden-ratio walk.
PointBatch Distinct(int dim, size_t n) {
  PointBatch batch(dim);
  Point x(dim);
  for (size_t i = 0; i < n; ++i) {
    for (int c = 0; c < dim; ++c) {
      const double v = static_cast<double>(i + 1) * (0.6180339887498949 + c);
      x[c] = v - static_cast<double>(static_cast<uint64_t>(v));
    }
    batch.AppendPoint(x);
  }
  return batch;
}

// Points with every coordinate at the lower or upper bound, mostly upper.
PointBatch Boundary(int dim, size_t n) {
  PointBatch batch(dim);
  Point x(dim);
  for (size_t i = 0; i < n; ++i) {
    for (int c = 0; c < dim; ++c) x[c] = (i + c) % 3 == 0 ? 0.0 : 1.0;
    batch.AppendPoint(x);
  }
  return batch;
}

PointBatch Repeated(int dim, size_t n) {
  PointBatch batch(dim);
  const Point x(dim, 0.3);
  for (size_t i = 0; i < n; ++i) batch.AppendPoint(x);
  return batch;
}

// Exact equality on every counter and sketch cell: the contract is bitwise.
void ExpectIdentical(const PrivHPShard& scalar, const PrivHPShard& batched,
                     const std::string& label) {
  ASSERT_EQ(scalar.num_processed(), batched.num_processed()) << label;
  ASSERT_EQ(scalar.counts().size(), batched.counts().size()) << label;
  for (size_t i = 0; i < scalar.counts().size(); ++i) {
    ASSERT_EQ(scalar.counts()[i], batched.counts()[i])
        << label << ": counter " << i;
  }
  ASSERT_EQ(scalar.sketches().size(), batched.sketches().size()) << label;
  for (size_t s = 0; s < scalar.sketches().size(); ++s) {
    const CountMinSketch& a = scalar.sketches()[s];
    const CountMinSketch& b = batched.sketches()[s];
    for (size_t row = 0; row < a.depth(); ++row) {
      for (size_t col = 0; col < a.width(); ++col) {
        ASSERT_EQ(a.CellValue(row, col), b.CellValue(row, col))
            << label << ": sketch " << s << " cell (" << row << ", " << col
            << ")";
      }
    }
  }
}

class ShardWindowTest
    : public ::testing::TestWithParam<std::tuple<int, PlanCase>> {
 protected:
  void ExpectAddBatchMatchesAdd(const PointBatch& batch,
                                const std::string& label) {
    const auto& [dim, plan] = GetParam();
    HypercubeDomain domain(dim);
    auto builder = PrivHPBuilder::Make(&domain, WindowOptions(plan));
    ASSERT_TRUE(builder.ok()) << builder.status().ToString();
    auto scalar = builder->NewShard();
    auto batched = builder->NewShard();
    ASSERT_TRUE(scalar.ok() && batched.ok());
    const ResolvedPlan& resolved = builder->plan();
    ASSERT_EQ(scalar->sketches().size(),
              static_cast<size_t>(resolved.l_max - resolved.l_star));
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(scalar->Add(batch.At(i)).ok());
    }
    ASSERT_TRUE(batched->AddBatch(batch).ok());
    ExpectIdentical(*scalar, *batched,
                    std::string(plan.name) + ", d=" + std::to_string(dim) +
                        ", " + label + " n=" + std::to_string(batch.size()));
  }
};

constexpr size_t kWindow = PrivHPShard::kWindow;
constexpr size_t kSorted = PrivHPShard::kMinSortedWindow;

TEST_P(ShardWindowTest, AddBatchEqualsAddAcrossWindowBoundaries) {
  const int dim = std::get<0>(GetParam());
  for (size_t n : {size_t{1}, size_t{255}, kSorted - 1, kSorted, kWindow - 1,
                   kWindow, kWindow + 1, kWindow + kSorted - 1,
                   3 * kWindow + 17}) {
    ExpectAddBatchMatchesAdd(Skewed(dim, n, n), "skewed");
    ExpectAddBatchMatchesAdd(Distinct(dim, n), "distinct");
    ExpectAddBatchMatchesAdd(Boundary(dim, n), "boundary");
  }
}

TEST_P(ShardWindowTest, OneRunCarriesTheWholeWindow) {
  const int dim = std::get<0>(GetParam());
  ExpectAddBatchMatchesAdd(Repeated(dim, kWindow), "repeated");
  ExpectAddBatchMatchesAdd(Repeated(dim, kWindow + 1), "repeated");
  ExpectAddBatchMatchesAdd(Repeated(dim, kSorted - 1), "repeated");
}

// The sort decision: only windows of at least kMinSortedWindow points
// whose keys repeat are sorted. Under the perfbench build plan (k = 32,
// n = 2^23: L* = 15, L = 23) pairwise distinct keys never repeat, and
// uniform keys at the shallowest sketch level, 16, are about 89%
// distinct in a full window and 97% in a 4096-point one; skewed and
// repeated ones far fewer. Under the mixed plan (n = 2^18: L* = 14,
// L = 18) a uniform full window is about 79% distinct at level 15, and
// is sorted. A multiplicative hash of the probe keys once estimated
// these at 99% and 96%.
TEST(ShardSortsWindowTest, SortsLargeWindowsOfRepeatingKeysOnly) {
  HypercubeDomain domain(1);
  PrivHPOptions options = WindowOptions(kPlans[0]);
  options.k = 32;
  options.expected_n = size_t{1} << 23;
  auto plan = PlanParameters(domain, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->l_star, 15);
  ASSERT_EQ(plan->l_max, 23);
  options.expected_n = size_t{1} << 18;
  auto mixed_plan = PlanParameters(domain, options);
  ASSERT_TRUE(mixed_plan.ok()) << mixed_plan.status().ToString();
  ASSERT_EQ(mixed_plan->l_star, 14);
  ASSERT_EQ(mixed_plan->l_max, 18);
  RandomEngine rng(5);
  PointBatch uniform(1);
  for (size_t i = 0; i < kWindow; ++i) {
    uniform.AppendPoint(Point{rng.UniformDouble()});
  }
  const PointBatch distinct = Distinct(1, kWindow);
  const PointBatch skewed = Skewed(1, kWindow, 6);
  const PointBatch repeated = Repeated(1, kWindow);
  std::vector<uint64_t> keys(kWindow);
  auto sorts = [&](const ResolvedPlan& p, const PointBatch& batch, size_t n) {
    domain.LocateBatch(batch.data(), 1, n, p.l_max, keys.data());
    return PrivHPShard::SortsWindow(p, keys.data(), n);
  };
  EXPECT_FALSE(sorts(*plan, distinct, kWindow));
  EXPECT_FALSE(sorts(*plan, uniform, kWindow));
  EXPECT_FALSE(sorts(*plan, uniform, kWindow / 4));
  EXPECT_FALSE(sorts(*plan, uniform, kSorted));
  EXPECT_TRUE(sorts(*mixed_plan, uniform, kWindow));
  EXPECT_TRUE(sorts(*plan, skewed, kWindow));
  EXPECT_TRUE(sorts(*plan, skewed, kSorted));
  EXPECT_TRUE(sorts(*plan, repeated, kWindow));
  EXPECT_TRUE(sorts(*plan, repeated, kSorted));
  EXPECT_FALSE(sorts(*plan, repeated, kSorted - 1));
  EXPECT_FALSE(sorts(*plan, skewed, kSorted - 1));
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndPlans, ShardWindowTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::ValuesIn(kPlans)),
    [](const ::testing::TestParamInfo<ShardWindowTest::ParamType>& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param).name;
    });

}  // namespace
}  // namespace privhp
