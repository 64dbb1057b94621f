#include "core/queries.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/macros.h"
#include "common/random.h"
#include "core/builder.h"
#include "domain/interval_domain.h"
#include "domain/ipv4_domain.h"
#include "eval/workloads.h"

namespace privhp {
namespace {

// A consistent depth-2 tree with leaf masses 1, 2, 3, 4.
PartitionTree SmallTree(const Domain* domain) {
  auto tree = PartitionTree::Complete(domain, 2);
  PartitionTree t = std::move(tree).ValueOrDie();
  t.node(t.Find(CellId{2, 0})).count = 1.0;
  t.node(t.Find(CellId{2, 1})).count = 2.0;
  t.node(t.Find(CellId{2, 2})).count = 3.0;
  t.node(t.Find(CellId{2, 3})).count = 4.0;
  t.node(t.Find(CellId{1, 0})).count = 3.0;
  t.node(t.Find(CellId{1, 1})).count = 7.0;
  t.node(t.root()).count = 10.0;
  return t;
}

TEST(CellMassFractionTest, ExactAtTreeCells) {
  IntervalDomain domain;
  PartitionTree tree = SmallTree(&domain);
  EXPECT_DOUBLE_EQ(CellMassFraction(tree, {0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(CellMassFraction(tree, {1, 0}), 0.3);
  EXPECT_DOUBLE_EQ(CellMassFraction(tree, {2, 3}), 0.4);
}

TEST(CellMassFractionTest, ApportionsBelowLeaves) {
  IntervalDomain domain;
  PartitionTree tree = SmallTree(&domain);
  // Cell {3, 0} is half of leaf {2, 0} (mass 0.1).
  EXPECT_DOUBLE_EQ(CellMassFraction(tree, {3, 0}), 0.05);
  EXPECT_DOUBLE_EQ(CellMassFraction(tree, {4, 0}), 0.025);
}

TEST(CellMassFractionTest, ZeroMassTree) {
  IntervalDomain domain;
  PartitionTree tree(&domain);
  EXPECT_DOUBLE_EQ(CellMassFraction(tree, {2, 1}), 0.0);
}

TEST(TreeQuantileTest, MatchesHandComputedCdf) {
  IntervalDomain domain;
  PartitionTree tree = SmallTree(&domain);
  // CDF mass per quarter: 0.1, 0.2, 0.3, 0.4.
  auto median = TreeQuantile(tree, 0.5);
  ASSERT_TRUE(median.ok());
  // 0.5 lands in the third quarter [0.5, 0.75): 0.1+0.2=0.3, need 0.2 of
  // the 0.3 mass => 2/3 through the cell.
  EXPECT_NEAR(*median, 0.5 + 0.25 * (2.0 / 3.0), 1e-9);
  auto q0 = TreeQuantile(tree, 0.0);
  auto q1 = TreeQuantile(tree, 1.0);
  ASSERT_TRUE(q0.ok() && q1.ok());
  EXPECT_NEAR(*q0, 0.0, 1e-9);
  EXPECT_NEAR(*q1, 1.0, 1e-9);
}

TEST(TreeQuantileTest, ValidatesInput) {
  IntervalDomain domain;
  PartitionTree tree = SmallTree(&domain);
  EXPECT_FALSE(TreeQuantile(tree, -0.1).ok());
  EXPECT_FALSE(TreeQuantile(tree, 1.1).ok());
  PartitionTree empty(&domain);
  EXPECT_TRUE(TreeQuantile(empty, 0.5).status().IsFailedPrecondition());
}

TEST(TreeQuantileTest, TracksEmpiricalQuantilesEndToEnd) {
  IntervalDomain domain;
  RandomEngine rng(3);
  auto data = GenerateGaussianMixture(1, 8192, 1, 0.1, &rng);
  PrivHPOptions options;
  options.epsilon = 4.0;
  options.k = 64;
  options.expected_n = data.size();
  options.seed = 5;
  auto builder = PrivHPBuilder::Make(&domain, options);
  ASSERT_TRUE(builder.ok());
  ASSERT_TRUE(builder->AddAll(PointBatch::FromPoints(data)).ok());
  auto generator = std::move(*builder).Finish();
  ASSERT_TRUE(generator.ok());

  std::vector<double> values(data.size());
  for (size_t i = 0; i < data.size(); ++i) values[i] = data[i][0];
  std::sort(values.begin(), values.end());
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    auto estimate = TreeQuantile(generator->tree(), q);
    ASSERT_TRUE(estimate.ok());
    const double truth = values[static_cast<size_t>(q * (values.size() - 1))];
    EXPECT_NEAR(*estimate, truth, 0.03) << "q=" << q;
  }
}

TEST(TreeQuantilesTest, BatchMatchesScalar) {
  IntervalDomain domain;
  PartitionTree tree = SmallTree(&domain);
  auto batch = TreeQuantiles(tree, {0.25, 0.5, 0.75});
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    auto scalar = TreeQuantile(tree, 0.25 * (i + 1));
    ASSERT_TRUE(scalar.ok());
    EXPECT_DOUBLE_EQ((*batch)[i], *scalar);
  }
}

TEST(HeavyHittersTest, FindsMaximalDepthCells) {
  IntervalDomain domain;
  PartitionTree tree = SmallTree(&domain);
  // threshold 0.35: {1,1} has 0.7 but its child {2,3} has 0.4 >= 0.35, so
  // the maximal cell is {2,3}; nothing else qualifies.
  auto hh = HierarchicalHeavyHitters(tree, 0.35);
  ASSERT_TRUE(hh.ok());
  ASSERT_EQ(hh->size(), 1u);
  EXPECT_EQ((*hh)[0].cell, (CellId{2, 3}));
  EXPECT_DOUBLE_EQ((*hh)[0].fraction, 0.4);
}

TEST(HeavyHittersTest, ThresholdControlsGranularity) {
  IntervalDomain domain;
  PartitionTree tree = SmallTree(&domain);
  // threshold 0.25: {2,3} (0.4), {2,2} (0.3), and {1,0} (0.3, both of its
  // children are light) are the maximal heavy cells.
  auto hh = HierarchicalHeavyHitters(tree, 0.25);
  ASSERT_TRUE(hh.ok());
  ASSERT_EQ(hh->size(), 3u);
  EXPECT_EQ((*hh)[0].cell, (CellId{2, 3}));
  bool saw_left_half = false, saw_third_quarter = false;
  for (const auto& cell : *hh) {
    if (cell.cell == CellId{1, 0}) saw_left_half = true;
    if (cell.cell == CellId{2, 2}) saw_third_quarter = true;
  }
  EXPECT_TRUE(saw_left_half);
  EXPECT_TRUE(saw_third_quarter);
  // threshold 1.0: only the root can qualify... and it does (fraction 1).
  auto root_only = HierarchicalHeavyHitters(tree, 1.0);
  ASSERT_TRUE(root_only.ok());
  ASSERT_EQ(root_only->size(), 1u);
  EXPECT_EQ((*root_only)[0].cell, (CellId{0, 0}));
}

TEST(HeavyHittersTest, ValidatesThreshold) {
  IntervalDomain domain;
  PartitionTree tree = SmallTree(&domain);
  EXPECT_FALSE(HierarchicalHeavyHitters(tree, 0.0).ok());
  EXPECT_FALSE(HierarchicalHeavyHitters(tree, 1.5).ok());
}

TEST(HeavyHittersTest, RecoversPlantedIpv4Prefixes) {
  Ipv4Domain domain;
  RandomEngine rng(7);
  // 70% of traffic in 10.0.0.0/8, rest spread widely.
  std::vector<Point> data;
  for (int i = 0; i < 8000; ++i) {
    if (rng.Bernoulli(0.7)) {
      data.push_back(Ipv4Domain::FromAddress(
          (10u << 24) | static_cast<uint32_t>(rng.UniformInt(1u << 24))));
    } else {
      data.push_back(Ipv4Domain::FromAddress(
          static_cast<uint32_t>(rng.UniformInt(1ull << 32))));
    }
  }
  PrivHPOptions options;
  options.epsilon = 2.0;
  options.k = 32;
  options.expected_n = data.size();
  options.l_star = 8;
  options.l_max = 16;
  options.seed = 11;
  auto builder = PrivHPBuilder::Make(&domain, options);
  ASSERT_TRUE(builder.ok());
  ASSERT_TRUE(builder->AddAll(PointBatch::FromPoints(data)).ok());
  auto generator = std::move(*builder).Finish();
  ASSERT_TRUE(generator.ok());

  auto hh = HierarchicalHeavyHitters(generator->tree(), 0.3);
  ASSERT_TRUE(hh.ok());
  ASSERT_FALSE(hh->empty());
  // The heaviest reported cell must sit inside 10.0.0.0/8.
  const CellId top = (*hh)[0].cell;
  ASSERT_GE(top.level, 8);
  EXPECT_EQ(top.index >> (top.level - 8), 10u);
}

}  // namespace
}  // namespace privhp
