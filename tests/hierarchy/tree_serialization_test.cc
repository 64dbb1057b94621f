#include "hierarchy/tree_serialization.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "common/macros.h"
#include "common/random.h"
#include "domain/hypercube_domain.h"
#include "domain/interval_domain.h"
#include "hierarchy/grow_partition.h"

namespace privhp {
namespace {

// A grown (non-complete) tree exercises the out-of-parent-order arena
// replay path.
class ConstSource : public LevelFrequencySource {
 public:
  double Query(int level, uint64_t index) const override {
    // Distinct counts so top-k ordering shuffles the append order.
    return 10.0 + static_cast<double>((index * 7 + level * 3) % 13);
  }
};

PartitionTree GrownTree(const Domain* domain) {
  auto tree = PartitionTree::Complete(domain, 2);
  PartitionTree t = std::move(tree).ValueOrDie();
  RandomEngine rng(5);
  t.node(t.root()).count = 100.0;
  for (uint64_t i = 0; i < 2; ++i) t.node(CompleteNodeId(1, i)).count = 50.0;
  for (uint64_t i = 0; i < 4; ++i) {
    t.node(CompleteNodeId(2, i)).count = 25.0 + rng.UniformDouble();
  }
  ConstSource source;
  GrowOptions options;
  options.k = 2;
  options.l_star = 2;
  options.grow_to = 5;
  PRIVHP_CHECK(GrowPartition(&t, source, options).ok());
  return t;
}

TEST(TreeSerializationTest, StreamRoundTripPreservesEverything) {
  IntervalDomain domain;
  PartitionTree tree = GrownTree(&domain);

  std::stringstream ss;
  ASSERT_TRUE(SaveTree(tree, &ss).ok());
  auto loaded = LoadTree(&domain, &ss);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  ASSERT_EQ(loaded->num_nodes(), tree.num_nodes());
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    const TreeNode& a = tree.node(static_cast<NodeId>(i));
    const TreeNode& b = loaded->node(static_cast<NodeId>(i));
    EXPECT_EQ(a.cell, b.cell);
    EXPECT_DOUBLE_EQ(a.count, b.count);
    EXPECT_EQ(a.left, b.left);
    EXPECT_EQ(a.right, b.right);
    if (i > 0) {
      EXPECT_EQ(tree.Find(a.cell.Parent()), loaded->Find(b.cell.Parent()));
    }
  }
}

TEST(TreeSerializationTest, FileRoundTrip) {
  IntervalDomain domain;
  PartitionTree tree = GrownTree(&domain);
  const std::string path = ::testing::TempDir() + "/privhp_tree.txt";
  ASSERT_TRUE(SaveTreeToFile(tree, path).ok());
  auto loaded = LoadTreeFromFile(&domain, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_nodes(), tree.num_nodes());
  EXPECT_TRUE(loaded->Validate(1e-6).ok());
  std::remove(path.c_str());
}

TEST(TreeSerializationTest, RejectsBadMagic) {
  IntervalDomain domain;
  std::stringstream ss("not-a-tree\nfoo\n1\n0 0 1.0 -1 -1\n");
  EXPECT_TRUE(LoadTree(&domain, &ss).status().IsIOError());
}

TEST(TreeSerializationTest, RejectsTruncatedStream) {
  IntervalDomain domain;
  std::stringstream ss("privhp-tree-v1\ninterval[0,1]\n3\n0 0 1.0 1 2\n");
  EXPECT_TRUE(LoadTree(&domain, &ss).status().IsIOError());
}

TEST(TreeSerializationTest, RejectsSingleChild) {
  IntervalDomain domain;
  std::stringstream ss(
      "privhp-tree-v1\ninterval[0,1]\n2\n0 0 1.0 1 -1\n1 0 1.0 -1 -1\n");
  EXPECT_TRUE(LoadTree(&domain, &ss).status().IsIOError());
}

TEST(TreeSerializationTest, RejectsMissingFile) {
  IntervalDomain domain;
  EXPECT_TRUE(
      LoadTreeFromFile(&domain, "/nonexistent/privhp.tree").status()
          .IsIOError());
}

TEST(TreeSerializationTest, V1FilesStillLoadWithMatchingDomain) {
  IntervalDomain domain;
  std::stringstream ss(
      "privhp-tree-v1\ninterval[0,1]\n3\n0 0 2.0 1 2\n1 0 1.0 -1 -1\n"
      "1 1 1.0 -1 -1\n");
  auto loaded = LoadTree(&domain, &ss);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_nodes(), 3u);
}

TEST(TreeSerializationTest, RejectsDomainNameMismatch) {
  IntervalDomain interval;
  HypercubeDomain cube2(2);
  PartitionTree tree = GrownTree(&interval);
  std::stringstream ss;
  ASSERT_TRUE(SaveTree(tree, &ss).ok());
  auto loaded = LoadTree(&cube2, &ss);
  EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
}

TEST(TreeSerializationTest, RejectsDimensionMismatch) {
  // A forged v2 header whose name matches but whose dimension does not:
  // the dimension check must catch it independently of the name.
  IntervalDomain domain;
  std::stringstream ss(
      "privhp-tree-v2\ninterval[0,1]\n2\n1\n0 0 1.0 -1 -1\n");
  auto loaded = LoadTree(&domain, &ss);
  EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
}

}  // namespace
}  // namespace privhp
