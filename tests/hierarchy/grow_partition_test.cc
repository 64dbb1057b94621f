#include "hierarchy/grow_partition.h"

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "domain/interval_domain.h"
#include "eval/tail.h"
#include "hierarchy/tree_stats.h"

namespace privhp {
namespace {

// A frequency source backed by an explicit (level, index) -> count map.
class MapSource : public LevelFrequencySource {
 public:
  void Set(int level, uint64_t index, double count) {
    counts_[{level, index}] = count;
  }
  double Query(int level, uint64_t index) const override {
    auto it = counts_.find({level, index});
    return it == counts_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::pair<int, uint64_t>, double> counts_;
};

// EXP-F2: the full Figure 2 walk-through (k = 2, L* = 1, L = 4; growth
// runs to L-1 = 3). Note: Figure 2(d) prints 3.9/3.8 for the Omega_1
// children but their pre-consistency counts 4.2 + 4.1 already sum to the
// parent's 8.3, so Algorithm 3 leaves them unchanged — the figure's (e)
// panel itself shows 4.2/4.1 again. We assert the algorithmically
// consistent values throughout.
TEST(GrowPartitionTest, Figure2Walkthrough) {
  IntervalDomain domain;
  auto tree = PartitionTree::Complete(&domain, 1);
  ASSERT_TRUE(tree.ok());
  // Figure 2(a): counts after the stream pass.
  tree->node(0).count = 20.2;
  tree->node(1).count = 12.2;  // Omega_0
  tree->node(2).count = 8.6;   // Omega_1

  MapSource sketches;
  // sketch_2 estimates (Figure 2c).
  sketches.Set(2, 0b00, 4.9);
  sketches.Set(2, 0b01, 7.6);
  sketches.Set(2, 0b10, 4.2);
  sketches.Set(2, 0b11, 4.1);
  // sketch_3 estimates (Figure 2e).
  sketches.Set(3, 0b000, 3.5);
  sketches.Set(3, 0b001, 3.7);
  sketches.Set(3, 0b010, 4.0);
  sketches.Set(3, 0b011, 6.7);

  GrowOptions options;
  options.k = 2;
  options.l_star = 1;
  options.grow_to = 3;  // L - 1 with L = 4
  ASSERT_TRUE(GrowPartition(&(*tree), sketches, options).ok());

  auto count_at = [&](CellId cell) {
    const NodeId id = tree->Find(cell);
    EXPECT_NE(id, kInvalidNode) << "missing cell level=" << cell.level
                                << " index=" << cell.index;
    return id == kInvalidNode ? -1.0 : tree->node(id).count;
  };

  // Figure 2(b): consistency on the initial tree.
  EXPECT_NEAR(count_at({0, 0}), 20.2, 1e-9);
  EXPECT_NEAR(count_at({1, 0}), 11.9, 1e-9);
  EXPECT_NEAR(count_at({1, 1}), 8.3, 1e-9);

  // Figure 2(d): level 2 after consistency.
  EXPECT_NEAR(count_at({2, 0b00}), 4.6, 1e-9);
  EXPECT_NEAR(count_at({2, 0b01}), 7.3, 1e-9);
  EXPECT_NEAR(count_at({2, 0b10}), 4.2, 1e-9);
  EXPECT_NEAR(count_at({2, 0b11}), 4.1, 1e-9);

  // Figure 2(e): top-2 at level 2 is {Omega_01 (7.3), Omega_00 (4.6)}, so
  // only those two branch to level 3.
  EXPECT_NE(tree->Find(CellId{3, 0b000}), kInvalidNode);
  EXPECT_NE(tree->Find(CellId{3, 0b010}), kInvalidNode);
  EXPECT_EQ(tree->Find(CellId{3, 0b100}), kInvalidNode);
  EXPECT_EQ(tree->Find(CellId{3, 0b110}), kInvalidNode);

  // Figure 2(f): level 3 after consistency.
  EXPECT_NEAR(count_at({3, 0b000}), 2.2, 1e-9);
  EXPECT_NEAR(count_at({3, 0b001}), 2.4, 1e-9);
  EXPECT_NEAR(count_at({3, 0b010}), 2.3, 1e-9);
  EXPECT_NEAR(count_at({3, 0b011}), 5.0, 1e-9);

  EXPECT_TRUE(tree->Validate().ok());
  // Leaves: 4 at level 3 plus the 2 pruned level-2 nodes.
  EXPECT_EQ(tree->Leaves().size(), 6u);
}

TEST(GrowPartitionTest, RequiresCompleteTreeAtLStar) {
  IntervalDomain domain;
  PartitionTree tree(&domain);  // depth 0, but l_star = 2
  MapSource source;
  GrowOptions options;
  options.k = 2;
  options.l_star = 2;
  options.grow_to = 4;
  EXPECT_TRUE(
      GrowPartition(&tree, source, options).IsFailedPrecondition());
}

TEST(GrowPartitionTest, ValidatesParameterRanges) {
  IntervalDomain domain;
  auto tree = PartitionTree::Complete(&domain, 2);
  ASSERT_TRUE(tree.ok());
  MapSource source;
  GrowOptions options;
  options.l_star = 2;
  options.grow_to = 1;  // grow_to < l_star
  EXPECT_TRUE(GrowPartition(&(*tree), source, options).IsInvalidArgument());
  options.grow_to = 60;  // beyond domain
  EXPECT_TRUE(GrowPartition(&(*tree), source, options).IsOutOfRange());
  options.grow_to = 5;
  options.k = 0;
  EXPECT_TRUE(GrowPartition(&(*tree), source, options).IsInvalidArgument());
}

TEST(GrowPartitionTest, GrowToEqualLStarOnlyAppliesConsistency) {
  IntervalDomain domain;
  auto tree = PartitionTree::Complete(&domain, 2);
  ASSERT_TRUE(tree.ok());
  tree->node(0).count = 8.0;
  for (NodeId id = 1; id < 3; ++id) tree->node(id).count = 5.0;
  for (NodeId id = 3; id < 7; ++id) tree->node(id).count = 3.0;
  MapSource source;
  GrowOptions options;
  options.k = 4;
  options.l_star = 2;
  options.grow_to = 2;
  ASSERT_TRUE(GrowPartition(&(*tree), source, options).ok());
  EXPECT_EQ(tree->MaxDepth(), 2);
  EXPECT_TRUE(tree->Validate().ok());
}

TEST(GrowPartitionTest, KeepsAllNodesWhenKExceedsLevelWidth) {
  IntervalDomain domain;
  auto tree = PartitionTree::Complete(&domain, 1);
  ASSERT_TRUE(tree.ok());
  tree->node(0).count = 4.0;
  tree->node(1).count = 2.0;
  tree->node(2).count = 2.0;
  MapSource source;
  source.Set(2, 0, 1.0);
  source.Set(2, 1, 1.0);
  source.Set(2, 2, 1.0);
  source.Set(2, 3, 1.0);
  source.Set(3, 0, 0.5);
  GrowOptions options;
  options.k = 100;  // larger than any level
  options.l_star = 1;
  options.grow_to = 3;
  ASSERT_TRUE(GrowPartition(&(*tree), source, options).ok());
  // With k >= width nothing is pruned: the tree is complete to level 3.
  EXPECT_EQ(tree->num_nodes(), 15u);
  EXPECT_EQ(tree->MaxDepth(), 3);
  EXPECT_EQ(tree->Leaves().size(), 8u);
}

TEST(GrowPartitionTest, ConsistencyCanBeDisabledForAblation) {
  IntervalDomain domain;
  auto tree = PartitionTree::Complete(&domain, 1);
  ASSERT_TRUE(tree.ok());
  tree->node(0).count = 20.2;
  tree->node(1).count = 12.2;
  tree->node(2).count = 8.6;
  MapSource source;
  source.Set(2, 0, 4.9);
  source.Set(2, 1, 7.6);
  source.Set(2, 2, 4.2);
  source.Set(2, 3, 4.1);
  GrowOptions options;
  options.k = 2;
  options.l_star = 1;
  options.grow_to = 2;
  options.enforce_consistency = false;
  ASSERT_TRUE(GrowPartition(&(*tree), source, options).ok());
  // Raw sketch values survive untouched.
  EXPECT_NEAR(tree->node(tree->Find(CellId{2, 0})).count, 4.9, 1e-12);
  EXPECT_NEAR(tree->node(tree->Find(CellId{1, 0})).count, 12.2, 1e-12);
}

// With an exact frequency source and no pruning pressure, growth
// reproduces the exact level counts (the T_exact construction of
// Section 7 with k large).
TEST(GrowPartitionTest, ExactSourceReproducesLevelCounts) {
  IntervalDomain domain;
  RandomEngine rng(77);
  std::vector<Point> data;
  for (int i = 0; i < 512; ++i) data.push_back({rng.UniformDouble()});

  const int l_star = 2, grow_to = 6;
  auto tree = PartitionTree::Complete(&domain, l_star);
  ASSERT_TRUE(tree.ok());
  MapSource source;
  for (int l = 0; l <= grow_to; ++l) {
    auto counts = LevelCounts(domain, data, l);
    ASSERT_TRUE(counts.ok());
    for (size_t i = 0; i < counts->size(); ++i) {
      if (l <= l_star) {
        if (tree->Find(CellId{l, i}) != kInvalidNode) {
          tree->node(tree->Find(CellId{l, i})).count = (*counts)[i];
        }
      } else {
        source.Set(l, i, (*counts)[i]);
      }
    }
  }
  GrowOptions options;
  options.k = 1 << 10;  // no pruning
  options.l_star = l_star;
  options.grow_to = grow_to;
  ASSERT_TRUE(GrowPartition(&(*tree), source, options).ok());
  EXPECT_TRUE(tree->Validate().ok());

  auto truth = LevelCounts(domain, data, grow_to);
  ASSERT_TRUE(truth.ok());
  for (size_t i = 0; i < truth->size(); ++i) {
    const NodeId id = tree->Find(CellId{grow_to, i});
    ASSERT_NE(id, kInvalidNode);
    EXPECT_NEAR(tree->node(id).count, (*truth)[i], 1e-9) << "cell " << i;
  }
}

}  // namespace
}  // namespace privhp
