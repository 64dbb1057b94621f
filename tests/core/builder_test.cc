#include "core/builder.h"

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/macros.h"

#include "common/random.h"
#include "domain/hypercube_domain.h"
#include "domain/interval_domain.h"
#include "eval/tail.h"
#include "eval/workloads.h"

namespace privhp {
namespace {

PrivHPOptions SmallOptions(uint64_t n) {
  PrivHPOptions options;
  options.epsilon = 1.0;
  options.k = 8;
  options.expected_n = n;
  options.seed = 7;
  return options;
}

TEST(BuilderTest, MakeRejectsNullDomain) {
  EXPECT_FALSE(PrivHPBuilder::Make(nullptr, SmallOptions(1000)).ok());
}

TEST(BuilderTest, AccountantSpendsExactlyEpsilon) {
  IntervalDomain domain;
  PrivHPOptions options = SmallOptions(4096);
  options.epsilon = 1.5;
  auto builder = PrivHPBuilder::Make(&domain, options);
  ASSERT_TRUE(builder.ok()) << builder.status();
  EXPECT_NEAR(builder->accountant().Spent(), 1.5, 1e-9);
  // One ledger entry per level 0..L.
  EXPECT_EQ(builder->accountant().ledger().size(),
            static_cast<size_t>(builder->plan().l_max) + 1);
}

TEST(BuilderTest, AddValidatesPoints) {
  IntervalDomain domain;
  auto builder = PrivHPBuilder::Make(&domain, SmallOptions(1000));
  ASSERT_TRUE(builder.ok());
  EXPECT_TRUE(builder->Add({0.5}).ok());
  EXPECT_TRUE(builder->Add({1.5}).IsOutOfRange());
  EXPECT_TRUE(builder->Add({0.5, 0.5}).IsInvalidArgument());
  EXPECT_EQ(builder->num_processed(), 1u);
}

TEST(BuilderTest, MemoryIndependentOfStreamLength) {
  IntervalDomain domain;
  RandomEngine rng(3);
  size_t memory_small = 0, memory_large = 0;
  {
    auto builder = PrivHPBuilder::Make(&domain, SmallOptions(1 << 12));
    ASSERT_TRUE(builder.ok());
    for (int i = 0; i < 1 << 8; ++i) {
      ASSERT_TRUE(builder->Add({rng.UniformDouble()}).ok());
    }
    memory_small = builder->MemoryBytes();
  }
  {
    auto builder = PrivHPBuilder::Make(&domain, SmallOptions(1 << 12));
    ASSERT_TRUE(builder.ok());
    for (int i = 0; i < 1 << 12; ++i) {
      ASSERT_TRUE(builder->Add({rng.UniformDouble()}).ok());
    }
    memory_large = builder->MemoryBytes();
  }
  // The footprint is set by the plan, not the number of points processed.
  EXPECT_EQ(memory_small, memory_large);
}

TEST(BuilderTest, MemoryScalesWithK) {
  IntervalDomain domain;
  PrivHPOptions small_k = SmallOptions(1 << 14);
  small_k.k = 4;
  PrivHPOptions large_k = SmallOptions(1 << 14);
  large_k.k = 64;
  auto b_small = PrivHPBuilder::Make(&domain, small_k);
  auto b_large = PrivHPBuilder::Make(&domain, large_k);
  ASSERT_TRUE(b_small.ok() && b_large.ok());
  EXPECT_GT(b_large->MemoryBytes(), b_small->MemoryBytes());
  const auto breakdown = b_large->memory_breakdown();
  EXPECT_EQ(breakdown.total_bytes,
            breakdown.counter_bytes + breakdown.sketch_bytes);
}

// The paper's M, exactly: 2^(L*+1) - 1 counters of 8 bytes and L - L*
// sketches of j rows, each row w cells of 8 bytes plus its CompactHash.
// Checked on the plans perfbench's `build` (n = 2^23) and `mixed`
// (n = 2^18) workloads ship with, and on a 2-D plan.
TEST(BuilderTest, MemoryBytesIsTheClosedForm) {
  HypercubeDomain line(1);
  HypercubeDomain square(2);
  struct Case {
    const Domain* domain;
    uint64_t n;
  };
  for (const Case& c : {Case{&line, uint64_t{1} << 23},
                        Case{&line, uint64_t{1} << 18},
                        Case{&square, uint64_t{1} << 20}}) {
    PrivHPOptions options;
    options.epsilon = 1.0;
    options.k = 32;
    options.seed = 42;
    options.expected_n = c.n;
    auto builder = PrivHPBuilder::Make(c.domain, options);
    ASSERT_TRUE(builder.ok());
    const ResolvedPlan& p = builder->plan();
    const size_t counters = (size_t{2} << p.l_star) - 1;
    const size_t sketch_levels = static_cast<size_t>(p.l_max - p.l_star);
    const size_t expected =
        8 * counters + sketch_levels * p.sketch_depth *
                           (8 * p.sketch_width + sizeof(CompactHash));
    EXPECT_EQ(builder->MemoryBytes(), expected) << p.ToString();
    const auto breakdown = builder->memory_breakdown();
    EXPECT_EQ(breakdown.counter_bytes, 8 * counters);
    EXPECT_EQ(breakdown.total_bytes, expected);
    auto shard = builder->NewShard();
    ASSERT_TRUE(shard.ok());
    EXPECT_EQ(shard->MemoryBytes(), expected) << p.ToString();
    // Ingest does not grow it: the window scratch is not streaming state.
    RandomEngine rng(3);
    PointBatch batch(c.domain->dimension());
    for (int i = 0; i < 5000; ++i) {
      Point x(static_cast<size_t>(c.domain->dimension()));
      for (double& v : x) v = rng.UniformDouble();
      batch.AppendPoint(x);
    }
    ASSERT_TRUE(shard->AddBatch(batch).ok());
    EXPECT_EQ(shard->MemoryBytes(), expected) << p.ToString();
  }
}

TEST(BuilderTest, PrivacyDisabledKeepsExactCountsAtExactLevels) {
  IntervalDomain domain;
  PrivHPOptions options = SmallOptions(256);
  options.disable_privacy_for_ablation = true;
  options.l_star = 3;
  options.l_max = 6;
  options.grow_to = 6;
  options.k = 1 << 10;  // no pruning
  auto builder = PrivHPBuilder::Make(&domain, options);
  ASSERT_TRUE(builder.ok());
  RandomEngine rng(5);
  std::vector<Point> data = GenerateUniform(1, 256, &rng);
  ASSERT_TRUE(builder->AddAll(PointBatch::FromPoints(data)).ok());
  auto generator = std::move(*builder).Finish();
  ASSERT_TRUE(generator.ok()) << generator.status();

  // With no noise and no pruning, level-6 counts equal the exact counts.
  auto truth = LevelCounts(domain, data, 6);
  ASSERT_TRUE(truth.ok());
  const PartitionTree& tree = generator->tree();
  for (size_t i = 0; i < truth->size(); ++i) {
    const NodeId id = tree.Find(CellId{6, i});
    ASSERT_NE(id, kInvalidNode);
    EXPECT_NEAR(tree.node(id).count, (*truth)[i], 1e-6) << "cell " << i;
  }
}

TEST(BuilderTest, FinishProducesConsistentTreeAtGrowDepth) {
  HypercubeDomain domain(2);
  PrivHPOptions options = SmallOptions(2048);
  auto builder = PrivHPBuilder::Make(&domain, options);
  ASSERT_TRUE(builder.ok());
  RandomEngine rng(9);
  ASSERT_TRUE(
      builder->AddAll(PointBatch::FromPoints(GenerateUniform(2, 2048, &rng)))
          .ok());
  const int expected_depth = builder->plan().grow_to;
  auto generator = std::move(*builder).Finish();
  ASSERT_TRUE(generator.ok()) << generator.status();
  EXPECT_EQ(generator->tree().MaxDepth(), expected_depth);
  EXPECT_TRUE(generator->tree().Validate(1e-6).ok());
}

TEST(BuilderTest, UseAfterFinishFails) {
  IntervalDomain domain;
  auto builder = PrivHPBuilder::Make(&domain, SmallOptions(512));
  ASSERT_TRUE(builder.ok());
  ASSERT_TRUE(builder->Add({0.25}).ok());
  auto generator = std::move(*builder).Finish();
  ASSERT_TRUE(generator.ok());
  EXPECT_TRUE(builder->Add({0.5}).IsFailedPrecondition());
  EXPECT_TRUE(std::move(*builder).Finish().status().IsFailedPrecondition());
}

TEST(BuilderTest, SameSeedSameGenerator) {
  IntervalDomain domain;
  RandomEngine rng(11);
  const std::vector<Point> data = GenerateUniform(1, 1024, &rng);
  auto build = [&]() {
    auto builder = PrivHPBuilder::Make(&domain, SmallOptions(1024));
    PRIVHP_CHECK(builder.ok());
    PRIVHP_CHECK(builder->AddAll(PointBatch::FromPoints(data)).ok());
    auto generator = std::move(*builder).Finish();
    PRIVHP_CHECK(generator.ok());
    return std::move(*generator);
  };
  const PrivHPGenerator a = build();
  const PrivHPGenerator b = build();
  ASSERT_EQ(a.tree().num_nodes(), b.tree().num_nodes());
  for (size_t i = 0; i < a.tree().num_nodes(); ++i) {
    EXPECT_DOUBLE_EQ(a.tree().node(static_cast<NodeId>(i)).count,
                     b.tree().node(static_cast<NodeId>(i)).count);
  }
}

}  // namespace
}  // namespace privhp
