// Property and failure-injection suites for the hierarchy layer:
//  * sampler distributions match leaf masses (chi-square) across random
//    consistent trees;
//  * random single-field corruption of a serialized tree is always
//    rejected with a clean Status (never a crash or a silently-wrong
//    tree);
//  * GrowPartition + consistency keep every invariant for arbitrary
//    noisy inputs across domains;
//  * GrowPartition's arithmetic level L*+1, at every thread count,
//    grows the same arena, node for node, as AddChildren does.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "domain/hypercube_domain.h"
#include "domain/interval_domain.h"
#include "hierarchy/consistency.h"
#include "hierarchy/grow_partition.h"
#include "hierarchy/tree_sampler.h"
#include "hierarchy/tree_serialization.h"
#include "hierarchy/tree_stats.h"
#include "testing/stats.h"

namespace privhp {
namespace {

// Random consistent tree: complete depth-4, random positive leaf masses,
// internal counts summed bottom-up.
PartitionTree RandomConsistentTree(const Domain* domain, uint64_t seed) {
  auto tree = PartitionTree::Complete(domain, 4);
  PartitionTree t = std::move(tree).ValueOrDie();
  RandomEngine rng(seed);
  for (uint64_t i = 0; i < 16; ++i) {
    t.node(CompleteNodeId(4, i)).count = rng.UniformDouble(0.0, 10.0);
  }
  for (int l = 3; l >= 0; --l) {
    for (uint64_t i = 0; i < (uint64_t{1} << l); ++i) {
      TreeNode& n = t.node(CompleteNodeId(l, i));
      n.count = t.node(n.left).count + t.node(n.right).count;
    }
  }
  return t;
}

class SamplerChiSquareTest : public ::testing::TestWithParam<int> {};

TEST_P(SamplerChiSquareTest, LeafFrequenciesMatchMasses) {
  IntervalDomain domain;
  PartitionTree tree = RandomConsistentTree(&domain, 1000 + GetParam());
  ASSERT_TRUE(tree.Validate(1e-9).ok());
  const double total = tree.node(tree.root()).count;

  TreeSampler sampler(&tree);
  RandomEngine rng(2000 + GetParam());
  const int draws = 32000;
  std::vector<double> hits(16, 0.0), expected(16, 0.0);
  for (int i = 0; i < draws; ++i) {
    hits[sampler.SampleLeafCell(&rng).index] += 1.0;
  }
  for (uint64_t i = 0; i < 16; ++i) {
    const TreeNode& n = tree.node(CompleteNodeId(4, i));
    expected[n.cell.index] = draws * n.count / total;
  }
  int dof = 0;
  const double chi2 = testing::ChiSquare(hits, expected,
                                         /*min_expected=*/5.0, &dof);
  EXPECT_LT(chi2, testing::ChiSquareBound(dof));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplerChiSquareTest,
                         ::testing::Range(0, 8));

class SerializationFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SerializationFuzzTest, CorruptedStreamsRejectedNotCrashing) {
  IntervalDomain domain;
  PartitionTree tree = RandomConsistentTree(&domain, 7);
  std::stringstream ss;
  ASSERT_TRUE(SaveTree(tree, &ss).ok());
  std::string text = ss.str();

  RandomEngine rng(3000 + GetParam());
  // Corrupt one random character with a random printable byte.
  const size_t pos = rng.UniformInt(text.size());
  const char replacement = static_cast<char>('0' + rng.UniformInt(75));
  if (text[pos] == replacement) return;  // no-op corruption
  text[pos] = replacement;

  std::stringstream corrupted(text);
  auto loaded = LoadTree(&domain, &corrupted);
  if (loaded.ok()) {
    // Numeric-field corruption can survive parsing; structure must still
    // be a valid arena (counts may differ — that is data, not structure).
    for (size_t i = 0; i < loaded->num_nodes(); ++i) {
      const TreeNode& n = loaded->node(static_cast<NodeId>(i));
      EXPECT_EQ(n.left == kInvalidNode, n.right == kInvalidNode);
    }
  } else {
    EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status();
  }
}

INSTANTIATE_TEST_SUITE_P(Corruptions, SerializationFuzzTest,
                         ::testing::Range(0, 24));

// A noise-driven frequency source with adversarial (negative, huge,
// zero) values: the grown tree must still satisfy every invariant.
class ChaosSource : public LevelFrequencySource {
 public:
  explicit ChaosSource(uint64_t seed) : rng_(seed) {}
  double Query(int level, uint64_t index) const override {
    (void)level;
    (void)index;
    const double u = rng_.UniformDouble();
    if (u < 0.2) return -rng_.Exponential(50.0);  // negative estimates
    if (u < 0.4) return 0.0;
    if (u < 0.6) return rng_.Exponential(1e6);    // absurdly large
    return rng_.UniformDouble(0.0, 20.0);
  }

 private:
  mutable RandomEngine rng_;
};

class GrowChaosTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GrowChaosTest, InvariantsSurviveAdversarialEstimates) {
  const auto [d, seed] = GetParam();
  HypercubeDomain domain(d);
  auto tree = PartitionTree::Complete(&domain, 3);
  ASSERT_TRUE(tree.ok());
  RandomEngine rng(seed);
  for (size_t i = 0; i < tree->num_nodes(); ++i) {
    tree->node(static_cast<NodeId>(i)).count = rng.Laplace(30.0) + 50.0;
  }
  ChaosSource source(seed * 31 + 7);
  GrowOptions options;
  options.k = 4;
  options.l_star = 3;
  options.grow_to = 8;
  ASSERT_TRUE(GrowPartition(&(*tree), source, options).ok());
  EXPECT_TRUE(tree->Validate(1e-6).ok());
  // The sampler must remain total on the chaotic tree.
  TreeSampler sampler(&(*tree));
  RandomEngine sample_rng(seed);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(domain.Contains(sampler.Sample(&sample_rng)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GrowChaosTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(1, 2, 3, 4, 5)));

// Total mass at the root is preserved through growth (consistency moves
// mass between siblings, never creates or destroys it).
TEST(GrowMassConservationTest, RootMassInvariantUnderGrowth) {
  IntervalDomain domain;
  auto tree = PartitionTree::Complete(&domain, 2);
  ASSERT_TRUE(tree.ok());
  RandomEngine rng(11);
  for (size_t i = 0; i < tree->num_nodes(); ++i) {
    tree->node(static_cast<NodeId>(i)).count =
        rng.UniformDouble(10.0, 100.0);
  }
  const double root_before = tree->node(tree->root()).count;
  ChaosSource source(99);
  GrowOptions options;
  options.k = 2;
  options.l_star = 2;
  options.grow_to = 7;
  ASSERT_TRUE(GrowPartition(&(*tree), source, options).ok());
  EXPECT_DOUBLE_EQ(tree->node(tree->root()).count, root_before);
  double leaf_mass = 0.0;
  for (NodeId id : tree->Leaves()) leaf_mass += tree->node(id).count;
  EXPECT_NEAR(leaf_mass, root_before, 1e-6 * root_before);
}

// A stateless source with the same mix of negative, zero, huge and
// ordinary estimates as ChaosSource, keyed by (level, index), so it can
// be queried from several threads at once.
class KeyedChaosSource : public LevelFrequencySource {
 public:
  explicit KeyedChaosSource(uint64_t seed) : seed_(seed) {}
  double Query(int level, uint64_t index) const override {
    const uint64_t h =
        Mix64(seed_ ^ Mix64((static_cast<uint64_t>(level) << 48) ^ index));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    const double v = static_cast<double>(h & 0x7ff) / 2048.0;
    if (u < 0.2) return -50.0 * v;
    if (u < 0.4) return 0.0;
    if (u < 0.6) return 1e6 * v;
    if (u < 0.7) return 7.0;  // ties, broken by cell index
    return 20.0 * v;
  }

 private:
  uint64_t seed_;
};

// Algorithm 2 grown one AddChildren call per hot node, the whole level
// queried in one call, pre-order consistency over the initial tree and a
// full sort for the top-k: the construction the arithmetic layout of
// level L*+1 replaces.
void ReferenceGrow(PartitionTree* tree, const LevelFrequencySource& source,
                   const GrowOptions& options) {
  if (options.enforce_consistency) EnforceConsistencyTree(tree);
  std::vector<NodeId> hot;
  for (uint64_t i = 0; i < (uint64_t{1} << options.l_star); ++i) {
    hot.push_back(CompleteNodeId(options.l_star, i));
  }
  for (int level = options.l_star + 1; level <= options.grow_to; ++level) {
    std::vector<NodeId> added;
    std::vector<uint64_t> indices;
    for (NodeId id : hot) {
      const NodeId left = tree->AddChildren(id);
      for (NodeId child : {left, left + 1}) {
        added.push_back(child);
        indices.push_back(tree->node(child).cell.index);
      }
    }
    std::vector<double> counts(indices.size());
    source.QueryBatch(level, indices.data(), indices.size(), counts.data());
    for (size_t i = 0; i < added.size(); ++i) {
      tree->node(added[i]).count = counts[i];
    }
    if (options.enforce_consistency) {
      for (NodeId id : hot) EnforceConsistencyAt(tree, id);
    }
    std::sort(added.begin(), added.end(), [&](NodeId a, NodeId b) {
      const TreeNode& na = tree->node(a);
      const TreeNode& nb = tree->node(b);
      if (na.count != nb.count) return na.count > nb.count;
      return na.cell.index < nb.cell.index;
    });
    added.resize(std::min<size_t>(added.size(), options.k));
    hot = added;
  }
}

// A complete tree of depth l_star with noisy counts drawn from \p seed.
PartitionTree NoisyCompleteTree(const Domain* domain, int l_star,
                                uint64_t seed) {
  PartitionTree tree = PartitionTree::Complete(domain, l_star).ValueOrDie();
  RandomEngine rng(seed);
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    tree.node(static_cast<NodeId>(i)).count = rng.Laplace(30.0) + 50.0;
  }
  return tree;
}

bool SameArena(const PartitionTree& a, const PartitionTree& b) {
  return a.num_nodes() == b.num_nodes() &&
         std::memcmp(a.arena(), b.arena(),
                     a.num_nodes() * sizeof(TreeNode)) == 0;
}

struct GrowCase {
  int dim;
  int l_star;
  int grow_to;
  size_t k;
  bool consistency;
};

const GrowCase kGrowCases[] = {
    {1, 0, 6, 2, true},    // one subtree: no thread can take a part
    {1, 1, 6, 3, true},    // 2^L* < threads
    {2, 2, 7, 4, true},
    {3, 3, 8, 4, true},
    {1, 4, 9, 5, true},
    {2, 3, 3, 4, true},    // grow_to == l_star
    {1, 3, 4, 4, true},    // grows level L*+1 only
    {1, 2, 6, 64, true},   // k >= 2^(L*+1): every candidate survives
    {2, 4, 8, 1, true},    // k = 1
    {1, 4, 8, 4, false},   // consistency off (EXP-CONS ablation)
};

TEST(GrowLayoutTest, MatchesAddChildrenGrowthAtEveryThreadCount) {
  for (const GrowCase& c : kGrowCases) {
    HypercubeDomain domain(c.dim);
    GrowOptions options;
    options.k = c.k;
    options.l_star = c.l_star;
    options.grow_to = c.grow_to;
    options.enforce_consistency = c.consistency;
    const KeyedChaosSource source(c.l_star * 7 + c.dim);
    PartitionTree reference = NoisyCompleteTree(&domain, c.l_star, c.k);
    ReferenceGrow(&reference, source, options);
    ASSERT_EQ(reference.num_nodes(), GrownNodeCount(options));
    for (int threads : {1, 2, 3, 4, 8}) {
      PartitionTree tree = NoisyCompleteTree(&domain, c.l_star, c.k);
      ASSERT_TRUE(GrowPartition(&tree, source, options, threads).ok());
      EXPECT_TRUE(SameArena(tree, reference))
          << "d=" << c.dim << " L*=" << c.l_star << " grow_to=" << c.grow_to
          << " k=" << c.k << " threads=" << threads;
    }
  }
}

// ChaosSource draws from one generator in call order, so it must see
// the same queries in the same order as the AddChildren growth did.
TEST(GrowLayoutTest, MatchesAddChildrenGrowthOverChaosSource) {
  for (const GrowCase& c : kGrowCases) {
    HypercubeDomain domain(c.dim);
    GrowOptions options;
    options.k = c.k;
    options.l_star = c.l_star;
    options.grow_to = c.grow_to;
    options.enforce_consistency = c.consistency;
    PartitionTree reference = NoisyCompleteTree(&domain, c.l_star, 3);
    ReferenceGrow(&reference, ChaosSource(c.k), options);
    PartitionTree tree = NoisyCompleteTree(&domain, c.l_star, 3);
    ASSERT_TRUE(GrowPartition(&tree, ChaosSource(c.k), options).ok());
    EXPECT_TRUE(SameArena(tree, reference))
        << "d=" << c.dim << " L*=" << c.l_star << " k=" << c.k;
    EXPECT_TRUE(tree.Validate(1e-6).ok() || !c.consistency);
  }
}

TEST(GrowLayoutTest, RejectsZeroThreads) {
  IntervalDomain domain;
  PartitionTree tree = NoisyCompleteTree(&domain, 2, 1);
  GrowOptions options;
  options.l_star = 2;
  options.grow_to = 4;
  EXPECT_TRUE(GrowPartition(&tree, KeyedChaosSource(1), options, 0)
                  .IsInvalidArgument());
  EXPECT_EQ(tree.num_nodes(), 7u);
}

}  // namespace
}  // namespace privhp
