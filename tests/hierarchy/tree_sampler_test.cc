#include "hierarchy/tree_sampler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "domain/hypercube_domain.h"
#include "domain/interval_domain.h"

namespace privhp {
namespace {

TEST(TreeSamplerTest, UniformFallbackOnZeroMass) {
  IntervalDomain domain;
  PartitionTree tree(&domain);
  tree.node(tree.root()).count = 0.0;
  TreeSampler sampler(&tree);
  RandomEngine rng(1);
  const Point p = sampler.Sample(&rng);
  EXPECT_TRUE(domain.Contains(p));
  EXPECT_EQ(sampler.SampleLeafCell(&rng), (CellId{0, 0}));
}

TEST(TreeSamplerTest, SamplesRespectLeafMasses) {
  IntervalDomain domain;
  auto tree = PartitionTree::Complete(&domain, 2);
  ASSERT_TRUE(tree.ok());
  // Leaf masses 1, 2, 3, 4 (level-2 cells), consistent internal counts.
  tree->node(tree->Find(CellId{2, 0})).count = 1.0;
  tree->node(tree->Find(CellId{2, 1})).count = 2.0;
  tree->node(tree->Find(CellId{2, 2})).count = 3.0;
  tree->node(tree->Find(CellId{2, 3})).count = 4.0;
  tree->node(tree->Find(CellId{1, 0})).count = 3.0;
  tree->node(tree->Find(CellId{1, 1})).count = 7.0;
  tree->node(tree->root()).count = 10.0;
  ASSERT_TRUE(tree->Validate().ok());

  TreeSampler sampler(&(*tree));
  RandomEngine rng(7);
  std::map<uint64_t, int> hits;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const CellId cell = sampler.SampleLeafCell(&rng);
    EXPECT_EQ(cell.level, 2);
    ++hits[cell.index];
  }
  EXPECT_NEAR(hits[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(hits[1] / static_cast<double>(n), 0.2, 0.01);
  EXPECT_NEAR(hits[2] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(hits[3] / static_cast<double>(n), 0.4, 0.01);
}

TEST(TreeSamplerTest, PointsLandInsideSampledLeafCells) {
  HypercubeDomain domain(2);
  auto tree = PartitionTree::Complete(&domain, 4);
  ASSERT_TRUE(tree.ok());
  // Mass concentrated on one deep cell.
  const CellId target{4, 9};
  for (CellId c = target;; c = c.Parent()) {
    tree->node(tree->Find(c)).count = 5.0;
    if (c.level == 0) break;
  }
  TreeSampler sampler(&(*tree));
  RandomEngine rng(9);
  for (int i = 0; i < 200; ++i) {
    const Point p = sampler.Sample(&rng);
    EXPECT_EQ(domain.Locate(p, 4), target.index);
  }
}

TEST(TreeSamplerTest, ZeroMassLeavesAreNeverChosen) {
  IntervalDomain domain;
  auto tree = PartitionTree::Complete(&domain, 1);
  ASSERT_TRUE(tree.ok());
  tree->node(0).count = 6.0;
  tree->node(1).count = 0.0;
  tree->node(2).count = 6.0;
  TreeSampler sampler(&(*tree));
  RandomEngine rng(11);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_EQ(sampler.SampleLeafCell(&rng).index, 1u);
  }
}

// A zero-mass *right* subtree under a parent whose count exceeds its
// children's sum (legal within the consistency tolerance): the old
// `u <= left_mass` walk clamped the surplus draws into the zero-mass
// side; the zero-mass guard must route every draw to the positive
// sibling. Deeper variant of the ISSUE-4 regression, exercising the
// drift-clamp path rather than the u == 0 boundary.
TEST(TreeSamplerTest, SurplusMassNeverEntersZeroCountSubtree) {
  IntervalDomain domain;
  auto tree = PartitionTree::Complete(&domain, 2);
  ASSERT_TRUE(tree.ok());
  tree->node(tree->Find(CellId{2, 0})).count = 4.0;
  tree->node(tree->Find(CellId{2, 1})).count = 2.0;
  tree->node(tree->Find(CellId{1, 0})).count = 6.0;
  tree->node(tree->root()).count = 7.0;  // surplus over children's sum
  TreeSampler sampler(&(*tree));
  RandomEngine rng(17);
  for (int i = 0; i < 100000; ++i) {
    const CellId cell = sampler.SampleLeafCell(&rng);
    ASSERT_LT(cell.index, 2u) << "walk entered the zero-count subtree";
  }
}

// A node carrying mass its children do not (a consistency-tolerance
// residue, exaggerated here): the walk must stop at that node's cell
// rather than descend into the all-zero subtree below it.
TEST(TreeSamplerTest, StopsAtNodeWhenAllChildrenAreZeroCount) {
  IntervalDomain domain;
  auto tree = PartitionTree::Complete(&domain, 2);
  ASSERT_TRUE(tree.ok());
  tree->node(tree->root()).count = 1.0;
  TreeSampler sampler(&(*tree));
  RandomEngine rng(23);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(sampler.SampleLeafCell(&rng), (CellId{0, 0}));
    EXPECT_TRUE(domain.Contains(sampler.Sample(&rng)));
  }
}

TEST(TreeSamplerTest, SampleBatchHasRequestedSize) {
  IntervalDomain domain;
  auto tree = PartitionTree::Complete(&domain, 3);
  ASSERT_TRUE(tree.ok());
  for (size_t i = 0; i < tree->num_nodes(); ++i) {
    tree->node(static_cast<NodeId>(i)).count =
        std::ldexp(8.0, -tree->node(static_cast<NodeId>(i)).cell.level);
  }
  TreeSampler sampler(&(*tree));
  RandomEngine rng(13);
  const auto batch = sampler.SampleBatch(257, &rng);
  EXPECT_EQ(batch.size(), 257u);
  for (const Point& p : batch) EXPECT_TRUE(domain.Contains(p));
}

TEST(TreeSamplerTest, DeterministicGivenSeed) {
  IntervalDomain domain;
  auto tree = PartitionTree::Complete(&domain, 3);
  ASSERT_TRUE(tree.ok());
  for (size_t i = 0; i < tree->num_nodes(); ++i) {
    tree->node(static_cast<NodeId>(i)).count = 1.0;
  }
  // Make counts consistent: parent = sum of children.
  for (int l = 2; l >= 0; --l) {
    for (uint64_t i = 0; i < (uint64_t{1} << l); ++i) {
      TreeNode& n = tree->node(CompleteNodeId(l, i));
      n.count = tree->node(n.left).count + tree->node(n.right).count;
    }
  }
  TreeSampler sampler(&(*tree));
  RandomEngine rng_a(99), rng_b(99);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(sampler.Sample(&rng_a), sampler.Sample(&rng_b));
  }
}

}  // namespace
}  // namespace privhp
