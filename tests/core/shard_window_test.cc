// Window-boundary identity for PrivHPShard::AddBatch. The columnar path
// applies a batch in 16384-point windows. Every window has its leaf keys
// radix-sorted, and every level is updated once per distinct key with
// the run length. The result must equal per-point Add() bit for bit, in
// every tree counter and every sketch cell. The cases aim at the edges of
// that scheme: batch sizes on either side of the window and small ones,
// one run spanning a whole window, skewed points beside pairwise
// distinct ones, points on the domain's upper bound (the locate clamp),
// and plans with no sketch levels, only the root counter, a
// non-power-of-two or a wide (4096) sketch width, keys wider than 32
// bits, keys of 62 bits (all 8 radix passes), or a probe level deep
// enough (deep_probe) that distinct points leave a window nothing to
// merge.

#include <gtest/gtest.h>

#include <algorithm>
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
    {"deepest_keys", 6, 62, 0},
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
    HypercubeDomain domain(dim, std::max(plan.l_max, 40));
    auto builder = PrivHPBuilder::Make(&domain, WindowOptions(plan));
    ASSERT_TRUE(builder.ok()) << builder.status().ToString();
    auto scalar = builder->NewShard();
    auto batched = builder->NewShard();
    ASSERT_TRUE(scalar.ok() && batched.ok());
    const ResolvedPlan& resolved = builder->plan();
    if (plan.l_max >= 0) {
      ASSERT_EQ(resolved.l_star, plan.l_star);
      ASSERT_EQ(resolved.l_max, plan.l_max);
    }
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

TEST_P(ShardWindowTest, AddBatchEqualsAddAcrossWindowBoundaries) {
  const int dim = std::get<0>(GetParam());
  for (size_t n : {size_t{1}, size_t{255}, size_t{511}, size_t{512},
                   kWindow - 1, kWindow, kWindow + 1, kWindow + 511,
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
  ExpectAddBatchMatchesAdd(Repeated(dim, 511), "repeated");
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
