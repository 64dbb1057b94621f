#include "hierarchy/compiled_sampler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "domain/hypercube_domain.h"
#include "domain/interval_domain.h"
#include "hierarchy/tree_sampler.h"
#include "io/point_sink.h"
#include "testing/stats.h"

namespace privhp {
namespace {

// Complete depth-`depth` tree with the given leaf masses (level order),
// internal counts summed bottom-up so the tree is exactly consistent.
PartitionTree TreeWithLeafMasses(const Domain* domain, int depth,
                                 const std::vector<double>& leaf_masses) {
  auto tree = PartitionTree::Complete(domain, depth);
  PartitionTree t = std::move(tree).ValueOrDie();
  const auto leaves = t.NodesAtLevel(depth);
  EXPECT_EQ(leaves.size(), leaf_masses.size());
  for (size_t i = 0; i < leaves.size(); ++i) {
    t.node(leaves[i]).count = leaf_masses[i];
  }
  for (int l = depth - 1; l >= 0; --l) {
    for (NodeId id : t.NodesAtLevel(l)) {
      TreeNode& n = t.node(id);
      n.count = t.node(n.left).count + t.node(n.right).count;
    }
  }
  return t;
}

TEST(CompiledSamplerTest, TableExcludesZeroMassLeaves) {
  IntervalDomain domain;
  PartitionTree tree =
      TreeWithLeafMasses(&domain, 3, {1, 0, 2, 0, 0, 3, 0, 4});
  CompiledSampler sampler(tree);
  EXPECT_EQ(sampler.num_cells(), 4u);
  EXPECT_DOUBLE_EQ(sampler.total_mass(), 10.0);
}

// The ISSUE-4 regression: zero-count leaves must never be sampled, over
// >= 10^5 draws, by BOTH the compiled sampler and the legacy walk.
TEST(CompiledSamplerTest, ZeroMassLeavesNeverSampledOver1e5Draws) {
  IntervalDomain domain;
  PartitionTree tree =
      TreeWithLeafMasses(&domain, 3, {5, 0, 0, 1, 0, 2, 0, 0});
  const std::vector<uint64_t> zero_leaves = {1, 2, 4, 6, 7};

  CompiledSampler compiled(tree);
  TreeSampler walk(&tree);
  RandomEngine rng_c(101), rng_w(202);
  for (int i = 0; i < 100000; ++i) {
    const CellId c = compiled.SampleLeafCell(&rng_c);
    const CellId w = walk.SampleLeafCell(&rng_w);
    for (uint64_t z : zero_leaves) {
      ASSERT_NE(c.index, z) << "compiled sampler emitted zero-mass leaf";
      ASSERT_NE(w.index, z) << "legacy walk emitted zero-mass leaf";
    }
  }
}

// Consistency repair leaves parents within a tolerance of their
// children's sum, so a real tree can carry a parent whose count exceeds
// left + right while the right subtree is all-zero. Under the old
// `u <= left_mass` walk a draw in (left_mass, parent_mass] was clamped
// into the zero-mass right subtree; the zero-mass guard must send every
// such draw left. The surplus here is made large (1.0 instead of 1e-6)
// so the old bug would fire on ~1/7 of draws instead of measure-~0.
TEST(CompiledSamplerTest, DriftSurplusNeverReachesZeroMassSubtree) {
  IntervalDomain domain;
  PartitionTree tree = TreeWithLeafMasses(&domain, 2, {4, 2, 0, 0});
  tree.node(tree.root()).count = 7.0;  // children sum to 6

  TreeSampler walk(&tree);
  RandomEngine rng(303);
  for (int i = 0; i < 100000; ++i) {
    const CellId cell = walk.SampleLeafCell(&rng);
    ASSERT_LT(cell.index, 2u)
        << "drift surplus walked into a zero-mass subtree";
  }

  // The compiled sampler never saw the inconsistent internal counts at
  // all — its table holds exactly the two positive leaves.
  CompiledSampler compiled(tree);
  EXPECT_EQ(compiled.num_cells(), 2u);
}

// Chi-square goodness-of-fit: compiled leaf-cell frequencies match the
// tree's normalized leaf masses, and the legacy walk's frequencies, on
// random consistent trees.
class CompiledChiSquareTest : public ::testing::TestWithParam<int> {};

TEST_P(CompiledChiSquareTest, MatchesLeafMassesAndLegacyWalk) {
  IntervalDomain domain;
  RandomEngine mass_rng(5000 + GetParam());
  std::vector<double> masses(16);
  for (double& m : masses) m = mass_rng.UniformDouble(0.5, 10.0);
  PartitionTree tree = TreeWithLeafMasses(&domain, 4, masses);
  ASSERT_TRUE(tree.Validate(1e-9).ok());
  const double total = tree.node(tree.root()).count;

  CompiledSampler compiled(tree);
  TreeSampler walk(&tree);
  const int draws = 32000;
  std::vector<double> hits_c(16, 0.0), hits_w(16, 0.0), expected(16, 0.0);
  RandomEngine rng_c(6000 + GetParam()), rng_w(7000 + GetParam());
  for (int i = 0; i < draws; ++i) {
    hits_c[compiled.SampleLeafCell(&rng_c).index] += 1.0;
    hits_w[walk.SampleLeafCell(&rng_w).index] += 1.0;
  }
  for (size_t i = 0; i < 16; ++i) expected[i] = draws * masses[i] / total;

  // Compiled vs the exact leaf masses (15 dof).
  EXPECT_LT(testing::ChiSquare(hits_c, expected),
            testing::ChiSquareBound(15));

  // Compiled vs legacy walk: two-sample chi-square on the same draw
  // count; both estimate the same distribution.
  EXPECT_LT(testing::ChiSquarePaired(hits_c, hits_w),
            testing::ChiSquareBound(15));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledChiSquareTest,
                         ::testing::Range(0, 8));

TEST(CompiledSamplerTest, SeededBatchesAreByteIdentical) {
  HypercubeDomain domain(2);
  RandomEngine mass_rng(11);
  std::vector<double> masses(32);
  for (double& m : masses) m = mass_rng.UniformDouble(0.0, 5.0);
  PartitionTree tree = TreeWithLeafMasses(&domain, 5, masses);
  CompiledSampler sampler(tree);

  RandomEngine rng_a(42), rng_b(42);
  const auto batch_a = sampler.SampleBatch(1000, &rng_a);
  const auto batch_b = sampler.SampleBatch(1000, &rng_b);
  ASSERT_EQ(batch_a.size(), 1000u);
  EXPECT_EQ(batch_a, batch_b);

  // GenerateTo draws the identical sequence through the sink's AddAll.
  CollectingSink sink(&domain);
  RandomEngine rng_c(42);
  ASSERT_TRUE(sampler.GenerateTo(1000, &rng_c, &sink).ok());
  EXPECT_EQ(sink.points(), batch_a);
}

TEST(CompiledSamplerTest, SampleMatchesBatchSequence) {
  IntervalDomain domain;
  PartitionTree tree = TreeWithLeafMasses(&domain, 3, {1, 2, 3, 4, 5, 6, 7, 8});
  CompiledSampler sampler(tree);
  RandomEngine rng_a(77), rng_b(77);
  const auto batch = sampler.SampleBatch(64, &rng_a);
  for (const Point& expected : batch) {
    EXPECT_EQ(sampler.Sample(&rng_b), expected);
  }
}

TEST(CompiledSamplerTest, UniformFallbackOnZeroMass) {
  IntervalDomain domain;
  PartitionTree tree(&domain);
  tree.node(tree.root()).count = 0.0;
  CompiledSampler sampler(tree);
  EXPECT_EQ(sampler.num_cells(), 1u);
  EXPECT_DOUBLE_EQ(sampler.total_mass(), 0.0);
  RandomEngine rng(1);
  const Point p = sampler.Sample(&rng);
  EXPECT_TRUE(domain.Contains(p));
  EXPECT_EQ(sampler.SampleLeafCell(&rng), (CellId{0, 0}));
}

// MemoryBytesBound charges one slot per leaf without compiling: exact
// when every leaf has mass, an over-count by the zero-mass leaves
// otherwise, and never below what the compile holds.
TEST(CompiledSamplerTest, MemoryBytesBoundCoversTheCompiledTable) {
  HypercubeDomain square(2);
  auto complete = PartitionTree::Complete(&square, 6);
  ASSERT_TRUE(complete.ok());
  for (size_t i = 0; i < complete->num_nodes(); ++i) {
    complete->node(static_cast<NodeId>(i)).count = 1.0;
  }
  EXPECT_EQ(CompiledSampler(*complete).MemoryBytes(),
            CompiledSampler::MemoryBytesBound(*complete));

  IntervalDomain interval;
  PartitionTree sparse =
      TreeWithLeafMasses(&interval, 3, {1, 0, 2, 0, 0, 3, 0, 4});
  EXPECT_LT(CompiledSampler(sparse).MemoryBytes(),
            CompiledSampler::MemoryBytesBound(sparse));

  PartitionTree empty(&interval);
  empty.node(empty.root()).count = 0.0;
  const NodeId left = empty.AddChildren(empty.root());
  empty.AddChildren(left);
  EXPECT_LE(CompiledSampler(empty).MemoryBytes(),
            CompiledSampler::MemoryBytesBound(empty));
}

TEST(CompiledSamplerTest, SelfContainedAfterTreeMutation) {
  IntervalDomain domain;
  PartitionTree tree = TreeWithLeafMasses(&domain, 2, {1, 0, 0, 3});
  CompiledSampler sampler(tree);
  // Zeroing the tree after compilation must not affect the sampler: the
  // table owns its data (only the Domain must stay alive).
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    tree.node(static_cast<NodeId>(i)).count = 0.0;
  }
  RandomEngine rng(9);
  std::map<uint64_t, int> hits;
  for (int i = 0; i < 4000; ++i) ++hits[sampler.SampleLeafCell(&rng).index];
  EXPECT_NEAR(hits[0] / 4000.0, 0.25, 0.03);
  EXPECT_NEAR(hits[3] / 4000.0, 0.75, 0.03);
  EXPECT_EQ(hits.count(1), 0u);
  EXPECT_EQ(hits.count(2), 0u);
}

TEST(CompiledSamplerTest, PointsLandInsideSampledCells) {
  HypercubeDomain domain(2);
  auto tree = PartitionTree::Complete(&domain, 4);
  ASSERT_TRUE(tree.ok());
  const CellId target{4, 9};
  for (CellId c = target;; c = c.Parent()) {
    tree->node(tree->Find(c)).count = 5.0;
    if (c.level == 0) break;
  }
  CompiledSampler sampler(*tree);
  ASSERT_EQ(sampler.num_cells(), 1u);
  RandomEngine rng(13);
  for (int i = 0; i < 200; ++i) {
    const Point p = sampler.Sample(&rng);
    EXPECT_EQ(domain.Locate(p, 4), target.index);
  }
}

TEST(CompiledSamplerTest, GenerateToRejectsNullSink) {
  IntervalDomain domain;
  PartitionTree tree = TreeWithLeafMasses(&domain, 1, {1, 1});
  CompiledSampler sampler(tree);
  RandomEngine rng(1);
  EXPECT_TRUE(
      sampler.GenerateTo(10, &rng, nullptr).IsInvalidArgument());
}

}  // namespace
}  // namespace privhp
