#include "hierarchy/partition_tree.h"

#include <gtest/gtest.h>

#include <vector>

#include "domain/hypercube_domain.h"
#include "domain/interval_domain.h"

namespace privhp {
namespace {

TEST(PartitionTreeTest, RootOnlyTree) {
  IntervalDomain domain;
  PartitionTree tree(&domain);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_TRUE(tree.node(tree.root()).is_leaf());
  EXPECT_EQ(tree.node(tree.root()).cell.level, 0);
  EXPECT_EQ(tree.MaxDepth(), 0);
}

TEST(PartitionTreeTest, CompleteTreeHasExpectedShape) {
  IntervalDomain domain;
  auto tree = PartitionTree::Complete(&domain, 3);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->num_nodes(), 15u);  // 2^4 - 1
  EXPECT_EQ(tree->MaxDepth(), 3);
  EXPECT_EQ(tree->node(CompleteNodeId(3, 0)).cell, (CellId{3, 0}));
  EXPECT_EQ(tree->node(CompleteNodeId(3, 7)).cell, (CellId{3, 7}));
  EXPECT_EQ(tree->Leaves().size(), 8u);
}

TEST(PartitionTreeTest, CompleteRejectsBadDepth) {
  IntervalDomain domain;
  EXPECT_FALSE(PartitionTree::Complete(&domain, -1).ok());
  EXPECT_FALSE(PartitionTree::Complete(&domain, 50).ok());
  EXPECT_FALSE(PartitionTree::Complete(nullptr, 2).ok());
}

TEST(PartitionTreeTest, BfsArenaLayout) {
  // Builder and PMM rely on level l occupying slots [2^l - 1, 2^{l+1} - 1).
  IntervalDomain domain;
  auto tree = PartitionTree::Complete(&domain, 4);
  ASSERT_TRUE(tree.ok());
  for (int l = 0; l <= 4; ++l) {
    for (uint64_t i = 0; i < (uint64_t{1} << l); ++i) {
      const NodeId id = static_cast<NodeId>(((uint64_t{1} << l) - 1) + i);
      EXPECT_EQ(tree->node(id).cell.level, l);
      EXPECT_EQ(tree->node(id).cell.index, i);
    }
  }
}

TEST(PartitionTreeTest, AddChildrenLinksBothSides) {
  IntervalDomain domain;
  PartitionTree tree(&domain);
  const NodeId left = tree.AddChildren(tree.root());
  EXPECT_EQ(tree.num_nodes(), 3u);
  const TreeNode& root = tree.node(tree.root());
  EXPECT_EQ(root.left, left);
  EXPECT_EQ(root.right, left + 1);
  EXPECT_EQ(tree.Find(tree.node(left).cell.Parent()), tree.root());
  EXPECT_EQ(tree.node(left).cell, (CellId{1, 0}));
  EXPECT_EQ(tree.node(left + 1).cell, (CellId{1, 1}));
}

TEST(PartitionTreeTest, FindWalksBitPath) {
  HypercubeDomain domain(2);
  auto tree = PartitionTree::Complete(&domain, 3);
  ASSERT_TRUE(tree.ok());
  const NodeId id = tree->Find(CellId{3, 5});  // path 1,0,1
  ASSERT_NE(id, kInvalidNode);
  EXPECT_EQ(tree->node(id).cell, (CellId{3, 5}));
  // Path that leaves the tree.
  EXPECT_EQ(tree->Find(CellId{5, 0}), kInvalidNode);
}

TEST(PartitionTreeTest, PreOrderVisitsParentsFirst) {
  IntervalDomain domain;
  auto tree = PartitionTree::Complete(&domain, 2);
  ASSERT_TRUE(tree.ok());
  std::vector<int> levels;
  std::vector<bool> seen(tree->num_nodes(), false);
  tree->PreOrder([&](NodeId id) {
    const TreeNode& n = tree->node(id);
    if (id != tree->root()) {
      EXPECT_TRUE(seen[tree->Find(n.cell.Parent())]);
    }
    seen[id] = true;
    levels.push_back(n.cell.level);
  });
  EXPECT_EQ(levels.size(), 7u);
  EXPECT_EQ(levels[0], 0);
}

TEST(PartitionTreeTest, ValidateCatchesNegativeCounts) {
  IntervalDomain domain;
  auto tree = PartitionTree::Complete(&domain, 1);
  ASSERT_TRUE(tree.ok());
  tree->node(1).count = -5.0;
  EXPECT_TRUE(tree->Validate().IsInternal());
}

TEST(PartitionTreeTest, ValidateCatchesInconsistentSums) {
  IntervalDomain domain;
  auto tree = PartitionTree::Complete(&domain, 1);
  ASSERT_TRUE(tree.ok());
  tree->node(0).count = 10.0;
  tree->node(1).count = 3.0;
  tree->node(2).count = 3.0;  // 3 + 3 != 10
  EXPECT_TRUE(tree->Validate().IsInternal());
  tree->node(2).count = 7.0;
  EXPECT_TRUE(tree->Validate().ok());
}

TEST(PartitionTreeTest, MemoryGrowsWithNodes) {
  IntervalDomain domain;
  auto small = PartitionTree::Complete(&domain, 2);
  auto large = PartitionTree::Complete(&domain, 8);
  ASSERT_TRUE(small.ok() && large.ok());
  EXPECT_GT(large->MemoryBytes(), small->MemoryBytes());
}

// Counts and capacity: node i of the breadth-first arena takes
// counts[i], and the links are those of the zero-count tree.
TEST(PartitionTreeTest, CompleteFromCountsKeepsBreadthFirstLayout) {
  IntervalDomain domain;
  std::vector<double> counts(15);
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<double>(i) + 0.5;
  }
  auto plain = PartitionTree::Complete(&domain, 3);
  auto filled = PartitionTree::Complete(&domain, 3, counts.data(), 40);
  ASSERT_TRUE(plain.ok() && filled.ok());
  ASSERT_EQ(filled->num_nodes(), 15u);
  EXPECT_GE(filled->capacity(), 40u);
  for (size_t i = 0; i < 15; ++i) {
    const TreeNode& a = plain->node(static_cast<NodeId>(i));
    const TreeNode& b = filled->node(static_cast<NodeId>(i));
    EXPECT_EQ(a.cell, b.cell) << i;
    EXPECT_EQ(a.left, b.left) << i;
    EXPECT_EQ(a.right, b.right) << i;
    if (i > 0) {
      EXPECT_EQ(plain->Find(a.cell.Parent()), filled->Find(b.cell.Parent()))
          << i;
    }
    EXPECT_EQ(a.count, 0.0) << i;
    EXPECT_EQ(b.count, counts[i]) << i;
    EXPECT_EQ(static_cast<size_t>(CompleteNodeId(b.cell.level, b.cell.index)),
              i);
  }
  // A capacity below the node count still holds the whole tree.
  auto small = PartitionTree::Complete(&domain, 3, counts.data(), 1);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->num_nodes(), 15u);
}

}  // namespace
}  // namespace privhp
