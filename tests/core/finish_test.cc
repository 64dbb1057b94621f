// PrivHPBuilder::Finish's batched growth. GrowPartition asks the
// builder's sketch source for each level's children in chunked
// QueryBatch calls (CountMinSketch::EstimateBatch), Finish builds the
// tree at its final node count up front, and Finish(num_threads) splits
// the first level below L* over threads. None of it may change a byte of
// the release, and the arena must be sized exactly. AbsorbShard must
// free the absorbed shard, and only once it has been merged; an absorbed
// shard cannot be absorbed again.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/builder.h"
#include "domain/hypercube_domain.h"
#include "hierarchy/grow_partition.h"
#include "hierarchy/tree_serialization.h"
#include "sketch/private_sketch.h"

namespace privhp {
namespace {

// The per-level private sketches behind Query only, so GrowPartition
// falls back to LevelFrequencySource's default QueryBatch: one scalar
// Estimate per child, in the order the unbatched growth asked for them.
class QueryOnlySource : public LevelFrequencySource {
 public:
  QueryOnlySource(const std::vector<PrivateCountMinSketch>* sketches,
                  int l_star)
      : sketches_(sketches), l_star_(l_star) {}

  double Query(int level, uint64_t index) const override {
    return (*sketches_)[level - l_star_ - 1].Estimate(index);
  }

 private:
  const std::vector<PrivateCountMinSketch>* sketches_;
  int l_star_;
};

PointBatch SkewedPoints(int dim, size_t n, uint64_t seed) {
  RandomEngine rng(seed);
  PointBatch batch(dim);
  Point x(dim);
  for (size_t i = 0; i < n; ++i) {
    for (double& c : x) c = rng.UniformDouble() * rng.UniformDouble();
    batch.AppendPoint(x);
  }
  return batch;
}

std::string TreeBytes(const PartitionTree& tree) {
  std::ostringstream out;
  EXPECT_TRUE(SaveTree(tree, &out).ok());
  return out.str();
}

// Finish's release, byte for byte, against the same noise drawn in
// Finish's order (counter levels, then each sketch's cells) and grown
// through the Query-only wrapper.
TEST(FinishTest, BatchedGrowthMatchesQueryOnlyGrowth) {
  for (int dim : {1, 2}) {
    HypercubeDomain domain(dim);
    PrivHPOptions options;
    options.epsilon = 1.0;
    options.k = 32;
    options.expected_n = size_t{1} << 16;
    options.seed = 11;
    auto builder = PrivHPBuilder::Make(&domain, options);
    ASSERT_TRUE(builder.ok()) << builder.status().ToString();
    const ResolvedPlan plan = builder->plan();
    ASSERT_FALSE(plan.privacy_disabled);
    ASSERT_GT(plan.grow_to, plan.l_star);
    auto shard = builder->NewShard();
    ASSERT_TRUE(shard.ok());
    ASSERT_TRUE(shard->AddBatch(SkewedPoints(dim, 20000, 3 + dim)).ok());

    auto complete = PartitionTree::Complete(&domain, plan.l_star,
                                            shard->counts().data());
    ASSERT_TRUE(complete.ok());
    PartitionTree tree = std::move(*complete);
    RandomEngine rng(plan.seed);
    for (int l = 0; l <= plan.l_star; ++l) {
      for (uint64_t i = 0; i < (uint64_t{1} << l); ++i) {
        tree.node(CompleteNodeId(l, i)).count +=
            rng.Laplace(1.0 / plan.budget.sigma[l]);
      }
    }
    std::vector<PrivateCountMinSketch> sketches;
    for (int l = plan.l_star + 1; l <= plan.l_max; ++l) {
      auto sketch = PrivateCountMinSketch::Privatize(
          shard->sketches()[l - plan.l_star - 1], plan.budget.sigma[l], &rng);
      ASSERT_TRUE(sketch.ok());
      sketches.push_back(std::move(*sketch));
    }
    GrowOptions grow;
    grow.k = plan.k;
    grow.l_star = plan.l_star;
    grow.grow_to = plan.grow_to;
    grow.enforce_consistency = plan.enforce_consistency;
    ASSERT_TRUE(
        GrowPartition(&tree, QueryOnlySource(&sketches, plan.l_star), grow)
            .ok());

    ASSERT_TRUE(builder->AbsorbShard(std::move(*shard)).ok());
    auto released = std::move(*builder).Finish();
    ASSERT_TRUE(released.ok()) << released.status().ToString();
    EXPECT_EQ(TreeBytes(released->tree()), TreeBytes(tree)) << "d=" << dim;
  }
}

// The shipped plan at the perfbench build size (k = 32, n = 2^23:
// L* = 15, grown to 22) releases 2^16 - 1 + 2 * 2^15 + 6 * 2 * 32 =
// 131,455 nodes, and Finish reserves exactly that many.
TEST(FinishTest, ShippedPlanTreeIsReservedExactly) {
  HypercubeDomain domain(1);
  PrivHPOptions options;
  options.epsilon = 1.0;
  options.k = 32;
  options.expected_n = size_t{1} << 23;
  options.seed = 42;
  auto builder = PrivHPBuilder::Make(&domain, options);
  ASSERT_TRUE(builder.ok()) << builder.status().ToString();
  ASSERT_EQ(builder->plan().l_star, 15);
  ASSERT_EQ(builder->plan().grow_to, 22);
  ASSERT_TRUE(builder->AddAll(SkewedPoints(1, 50000, 9)).ok());
  auto released = std::move(*builder).Finish();
  ASSERT_TRUE(released.ok()) << released.status().ToString();
  EXPECT_EQ(released->tree().num_nodes(), 131455u);
  EXPECT_EQ(released->tree().capacity(), released->tree().num_nodes());
}

// A plan for the thread-count gate: -1 leaves a level to the planner.
struct ThreadPlan {
  const char* name;
  int dim;
  int l_star;
  int grow_to;
  uint64_t k;
  bool consistency;
  bool privacy;
};

// Finish(T) releases the same arena and the same serialized tree as
// Finish(1), including where 2^L* < T, where T is not a power of two,
// and on the ablation plans.
TEST(FinishTest, ReleaseIsTheSameAtEveryThreadCount) {
  const ThreadPlan plans[] = {
      {"lstar0", 1, 0, -1, 4, true, true},
      {"lstar1", 1, 1, -1, 4, true, true},
      {"lstar2", 1, 2, -1, 4, true, true},
      {"grow_to_lstar", 1, 3, 3, 4, true, true},
      {"k_covers_level", 1, 2, -1, 64, true, true},
      {"k1", 1, 5, -1, 1, true, true},
      {"no_consistency", 1, 5, -1, 8, false, true},
      {"no_privacy", 1, 5, -1, 8, true, false},
      {"two_d", 2, -1, -1, 8, true, true},
      {"shipped", 1, -1, -1, 32, true, true},
  };
  const PointBatch data = SkewedPoints(1, 5000, 21);
  const PointBatch data2 = SkewedPoints(2, 5000, 22);
  for (const ThreadPlan& plan : plans) {
    HypercubeDomain domain(plan.dim);
    PrivHPOptions options;
    options.k = plan.k;
    options.expected_n = size_t{1} << 14;
    options.l_star = plan.l_star;
    options.grow_to = plan.grow_to;
    options.enforce_consistency = plan.consistency;
    options.disable_privacy_for_ablation = !plan.privacy;
    options.seed = 17;
    std::string arena;
    std::string serialized;
    for (int threads : {1, 2, 3, 4, 8}) {
      auto builder = PrivHPBuilder::Make(&domain, options);
      ASSERT_TRUE(builder.ok()) << plan.name << ": " << builder.status();
      if (plan.l_star >= 0) {
        ASSERT_EQ(builder->plan().l_star, plan.l_star) << plan.name;
      }
      ASSERT_TRUE(builder->AddAll(plan.dim == 1 ? data : data2).ok());
      auto released = std::move(*builder).Finish(threads);
      ASSERT_TRUE(released.ok()) << plan.name << ": " << released.status();
      const PartitionTree& tree = released->tree();
      EXPECT_EQ(tree.capacity(), tree.num_nodes()) << plan.name;
      const size_t bytes = tree.num_nodes() * sizeof(TreeNode);
      if (threads == 1) {
        arena.assign(reinterpret_cast<const char*>(tree.arena()), bytes);
        serialized = TreeBytes(tree);
        continue;
      }
      ASSERT_EQ(bytes, arena.size()) << plan.name << " T=" << threads;
      EXPECT_EQ(std::memcmp(tree.arena(), arena.data(), bytes), 0)
          << plan.name << " T=" << threads;
      EXPECT_EQ(TreeBytes(tree), serialized) << plan.name << " T=" << threads;
    }
  }
}

TEST(FinishTest, RejectsZeroThreadsAndStaysUsable) {
  HypercubeDomain domain(1);
  PrivHPOptions options;
  options.expected_n = size_t{1} << 12;
  auto builder = PrivHPBuilder::Make(&domain, options);
  ASSERT_TRUE(builder.ok());
  ASSERT_TRUE(builder->AddAll(SkewedPoints(1, 100, 4)).ok());
  EXPECT_TRUE(std::move(*builder).Finish(0).status().IsInvalidArgument());
  // NOLINTNEXTLINE(bugprone-use-after-move): a refused Finish keeps it.
  EXPECT_TRUE(std::move(*builder).Finish(2).ok());
}

TEST(FinishTest, AbsorbShardFreesTheShard) {
  HypercubeDomain domain(2);
  PrivHPOptions options;
  options.expected_n = size_t{1} << 12;
  options.seed = 5;
  auto builder = PrivHPBuilder::Make(&domain, options);
  ASSERT_TRUE(builder.ok());
  auto shard = builder->NewShard();
  ASSERT_TRUE(shard.ok());
  ASSERT_TRUE(shard->AddBatch(SkewedPoints(2, 1000, 1)).ok());
  ASSERT_FALSE(shard->sketches().empty());
  ASSERT_TRUE(builder->AbsorbShard(std::move(*shard)).ok());
  EXPECT_EQ(builder->num_processed(), 1000u);
  // NOLINTNEXTLINE(bugprone-use-after-move): checks the state is gone.
  const PrivHPShard& absorbed = *shard;
  EXPECT_TRUE(absorbed.counts().empty());
  EXPECT_TRUE(absorbed.sketches().empty());
}

// A shard Merge rejects is not consumed: its counts stay with the caller.
TEST(FinishTest, AbsorbShardKeepsARejectedShard) {
  HypercubeDomain domain(2);
  HypercubeDomain other_domain(2);
  PrivHPOptions options;
  options.expected_n = size_t{1} << 12;
  options.seed = 5;
  auto builder = PrivHPBuilder::Make(&domain, options);
  auto other = PrivHPBuilder::Make(&other_domain, options);
  ASSERT_TRUE(builder.ok());
  ASSERT_TRUE(other.ok());
  auto shard = other->NewShard();
  ASSERT_TRUE(shard.ok());
  ASSERT_TRUE(shard->AddBatch(SkewedPoints(2, 1000, 1)).ok());
  const std::vector<double> counts = shard->counts();
  const size_t levels = shard->sketches().size();
  ASSERT_GT(levels, 0u);
  EXPECT_FALSE(builder->AbsorbShard(std::move(*shard)).ok());
  EXPECT_EQ(builder->num_processed(), 0u);
  // NOLINTNEXTLINE(bugprone-use-after-move): a rejected shard is kept.
  const PrivHPShard& kept = *shard;
  EXPECT_EQ(kept.counts(), counts);
  EXPECT_EQ(kept.sketches().size(), levels);
  EXPECT_EQ(kept.num_processed(), 1000u);
}

// An absorbed shard is empty: absorbing it again is refused before
// anything is added, and the release is the one absorb's release.
TEST(FinishTest, AbsorbingAShardTwiceFails) {
  HypercubeDomain domain(2);
  PrivHPOptions options;
  options.expected_n = size_t{1} << 12;
  options.seed = 5;
  std::string releases[2];
  for (int absorbs = 1; absorbs <= 2; ++absorbs) {
    auto builder = PrivHPBuilder::Make(&domain, options);
    ASSERT_TRUE(builder.ok());
    auto shard = builder->NewShard();
    ASSERT_TRUE(shard.ok());
    ASSERT_TRUE(shard->AddBatch(SkewedPoints(2, 1000, 1)).ok());
    ASSERT_TRUE(builder->AbsorbShard(std::move(*shard)).ok());
    if (absorbs == 2) {
      // NOLINTNEXTLINE(bugprone-use-after-move): the second absorb.
      EXPECT_TRUE(builder->AbsorbShard(std::move(*shard)).IsInvalidArgument());
    }
    EXPECT_EQ(builder->num_processed(), 1000u);
    auto released = std::move(*builder).Finish();
    ASSERT_TRUE(released.ok()) << released.status().ToString();
    std::stringstream ss;
    ASSERT_TRUE(SaveTree(released->tree(), &ss).ok());
    releases[absorbs - 1] = ss.str();
  }
  EXPECT_EQ(releases[0], releases[1]);
}

}  // namespace
}  // namespace privhp
