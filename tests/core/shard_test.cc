#include "core/shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/macros.h"
#include "core/builder.h"
#include "domain/hypercube_domain.h"
#include "domain/interval_domain.h"
#include "eval/workloads.h"
#include "hierarchy/tree_serialization.h"
#include "io/point_sink.h"

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

PrivHPShard MakeShard(const Domain* domain, const PrivHPOptions& options) {
  auto builder = PrivHPBuilder::Make(domain, options);
  PRIVHP_CHECK(builder.ok());
  auto shard = builder->NewShard();
  PRIVHP_CHECK(shard.ok());
  return std::move(*shard);
}

std::string Serialized(const PrivHPGenerator& generator) {
  std::stringstream ss;
  PRIVHP_CHECK(SaveTree(generator.tree(), &ss).ok());
  return ss.str();
}

void ExpectShardsEqual(const PrivHPShard& a, const PrivHPShard& b) {
  ASSERT_EQ(a.counts().size(), b.counts().size());
  for (size_t i = 0; i < a.counts().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.counts()[i], b.counts()[i]) << "counter " << i;
  }
  ASSERT_EQ(a.sketches().size(), b.sketches().size());
  for (size_t s = 0; s < a.sketches().size(); ++s) {
    const CountMinSketch& sa = a.sketches()[s];
    const CountMinSketch& sb = b.sketches()[s];
    ASSERT_EQ(sa.width(), sb.width());
    ASSERT_EQ(sa.depth(), sb.depth());
    for (size_t row = 0; row < sa.depth(); ++row) {
      for (size_t col = 0; col < sa.width(); ++col) {
        EXPECT_DOUBLE_EQ(sa.CellValue(row, col), sb.CellValue(row, col))
            << "sketch " << s << " cell (" << row << ", " << col << ")";
      }
    }
  }
}

TEST(ShardTest, AccumulatesExactNoiseFreeCounts) {
  IntervalDomain domain;
  PrivHPShard shard = MakeShard(&domain, SmallOptions(1024));
  RandomEngine rng(3);
  const auto data = PointBatch::FromPoints(GenerateUniform(1, 200, &rng));
  ASSERT_TRUE(shard.AddBatch(data).ok());
  EXPECT_EQ(shard.num_processed(), 200u);
  // Pre-noise state: the root holds exactly the stream length.
  EXPECT_DOUBLE_EQ(shard.counts()[CompleteNodeId(0, 0)], 200.0);
  // Level-1 counts partition the stream exactly.
  const std::vector<double>& counts = shard.counts();
  EXPECT_DOUBLE_EQ(
      counts[CompleteNodeId(1, 0)] + counts[CompleteNodeId(1, 1)], 200.0);
}

TEST(ShardTest, ValidatesPointsLikeTheBuilder) {
  IntervalDomain domain;
  PrivHPShard shard = MakeShard(&domain, SmallOptions(1024));
  EXPECT_TRUE(shard.Add({0.5}).ok());
  EXPECT_TRUE(shard.Add({1.5}).IsOutOfRange());
  EXPECT_TRUE(shard.Add({0.5, 0.5}).IsInvalidArgument());
  EXPECT_EQ(shard.num_processed(), 1u);
}

// A bad point in the middle of a batch must not leave the shard
// half-updated: a failed batch leaves tree counts, sketch cells and
// num_processed bit-for-bit unchanged.
TEST(ShardTest, FailedBatchLeavesShardUntouched) {
  IntervalDomain domain;
  const PrivHPOptions options = SmallOptions(1024);
  PrivHPShard shard = MakeShard(&domain, options);
  RandomEngine rng(21);
  const auto good = PointBatch::FromPoints(GenerateUniform(1, 50, &rng));
  ASSERT_TRUE(shard.AddBatch(good).ok());
  const PrivHPShard snapshot = shard;  // full accumulation state

  PointBatch batch = PointBatch::FromPoints(GenerateUniform(1, 20, &rng));
  batch.row(13)[0] = 2.5;  // outside [0,1]
  const Status failed = shard.AddBatch(batch);
  EXPECT_TRUE(failed.IsOutOfRange());
  EXPECT_NE(failed.message().find("batch point 13"), std::string::npos);
  EXPECT_EQ(shard.num_processed(), 50u);
  ExpectShardsEqual(shard, snapshot);

  // A batch of the wrong dimension keeps its status code and is equally
  // atomic.
  const auto wrong_dim = PointBatch::FromPoints(GenerateUniform(2, 4, &rng));
  EXPECT_TRUE(shard.AddBatch(wrong_dim).IsInvalidArgument());
  EXPECT_EQ(shard.num_processed(), 50u);
  ExpectShardsEqual(shard, snapshot);

  // And the shard still ingests normally afterwards.
  EXPECT_TRUE(shard.AddBatch(good).ok());
  EXPECT_EQ(shard.num_processed(), 100u);
}

TEST(ShardTest, AddBatchBitwiseIdenticalToScalarAdd) {
  HypercubeDomain domain(2);
  const PrivHPOptions options = SmallOptions(4096);
  RandomEngine rng(22);
  const auto data = GenerateGaussianMixture(2, 3000, 3, 0.05, &rng);
  const auto staged = PointBatch::FromPoints(data);
  PrivHPShard scalar = MakeShard(&domain, options);
  PrivHPShard batched = MakeShard(&domain, options);
  for (const Point& x : data) ASSERT_TRUE(scalar.Add(x).ok());
  ASSERT_TRUE(batched.AddBatch(staged).ok());
  EXPECT_EQ(batched.num_processed(), scalar.num_processed());
  ExpectShardsEqual(scalar, batched);

  // Batch boundaries must not matter: odd sizes below, at and above the
  // internal chunk produce the same state.
  PrivHPShard chunked = MakeShard(&domain, options);
  const size_t sizes[] = {1, 7, 255, 256, 257, 1000};
  size_t base = 0;
  size_t turn = 0;
  while (base < data.size()) {
    const size_t take = std::min(sizes[turn++ % 6], data.size() - base);
    PointBatch slice(2);
    slice.AppendFlat(staged.row(base), take);
    ASSERT_TRUE(chunked.AddBatch(slice).ok());
    base += take;
  }
  ExpectShardsEqual(scalar, chunked);
}

// The released artifacts must agree too: scalar Add loop, one AddAll
// batch, and an S-shard merged build (each shard fed one contiguous
// slice) all serialize to the same bytes.
TEST(ShardTest, BatchedBuildMatchesScalarAndShardedBitwise) {
  HypercubeDomain domain(2);
  const PrivHPOptions options = SmallOptions(4096);
  RandomEngine rng(23);
  const auto data = GenerateGaussianMixture(2, 4096, 3, 0.05, &rng);
  const auto staged = PointBatch::FromPoints(data);

  auto scalar_builder = PrivHPBuilder::Make(&domain, options);
  ASSERT_TRUE(scalar_builder.ok());
  for (const Point& x : data) ASSERT_TRUE(scalar_builder->Add(x).ok());
  auto gen_scalar = std::move(*scalar_builder).Finish();
  ASSERT_TRUE(gen_scalar.ok());

  auto batched_builder = PrivHPBuilder::Make(&domain, options);
  ASSERT_TRUE(batched_builder.ok());
  ASSERT_TRUE(batched_builder->AddAll(staged).ok());
  auto gen_batched = std::move(*batched_builder).Finish();
  ASSERT_TRUE(gen_batched.ok());
  EXPECT_EQ(Serialized(*gen_scalar), Serialized(*gen_batched));

  auto sharded_builder = PrivHPBuilder::Make(&domain, options);
  ASSERT_TRUE(sharded_builder.ok());
  for (size_t s = 0; s < 3; ++s) {
    auto shard = sharded_builder->NewShard();
    ASSERT_TRUE(shard.ok());
    const size_t begin = s * data.size() / 3;
    const size_t end = (s + 1) * data.size() / 3;
    PointBatch slice(2);
    slice.AppendFlat(staged.row(begin), end - begin);
    ASSERT_TRUE(shard->AddBatch(slice).ok());
    ASSERT_TRUE(sharded_builder->AbsorbShard(std::move(*shard)).ok());
  }
  auto gen_sharded = std::move(*sharded_builder).Finish();
  ASSERT_TRUE(gen_sharded.ok());
  EXPECT_EQ(Serialized(*gen_scalar), Serialized(*gen_sharded));
}

TEST(ShardTest, MergeIsCommutative) {
  IntervalDomain domain;
  const PrivHPOptions options = SmallOptions(2048);
  RandomEngine rng(5);
  const auto data_a =
      PointBatch::FromPoints(GenerateZipfCells(1, 500, 10, 1.2, &rng));
  const auto data_b = PointBatch::FromPoints(GenerateUniform(1, 300, &rng));

  PrivHPShard ab = MakeShard(&domain, options);
  PrivHPShard ab_other = MakeShard(&domain, options);
  ASSERT_TRUE(ab.AddAll(data_a).ok());
  ASSERT_TRUE(ab_other.AddAll(data_b).ok());
  ASSERT_TRUE(ab.Merge(std::move(ab_other)).ok());

  PrivHPShard ba = MakeShard(&domain, options);
  PrivHPShard ba_other = MakeShard(&domain, options);
  ASSERT_TRUE(ba.AddAll(data_b).ok());
  ASSERT_TRUE(ba_other.AddAll(data_a).ok());
  ASSERT_TRUE(ba.Merge(std::move(ba_other)).ok());

  EXPECT_EQ(ab.num_processed(), 800u);
  EXPECT_EQ(ba.num_processed(), 800u);
  ExpectShardsEqual(ab, ba);
}

TEST(ShardTest, MergeIsAssociative) {
  IntervalDomain domain;
  const PrivHPOptions options = SmallOptions(2048);
  RandomEngine rng(6);
  const auto data_a = PointBatch::FromPoints(GenerateUniform(1, 100, &rng));
  const auto data_b = PointBatch::FromPoints(GenerateUniform(1, 200, &rng));
  const auto data_c = PointBatch::FromPoints(GenerateUniform(1, 300, &rng));

  auto fresh = [&](const PointBatch& data) {
    PrivHPShard shard = MakeShard(&domain, options);
    PRIVHP_CHECK(shard.AddAll(data).ok());
    return shard;
  };

  // (A + B) + C
  PrivHPShard left = fresh(data_a);
  {
    PrivHPShard b = fresh(data_b);
    ASSERT_TRUE(left.Merge(std::move(b)).ok());
    PrivHPShard c = fresh(data_c);
    ASSERT_TRUE(left.Merge(std::move(c)).ok());
  }
  // A + (B + C)
  PrivHPShard right = fresh(data_a);
  {
    PrivHPShard bc = fresh(data_b);
    PrivHPShard c = fresh(data_c);
    ASSERT_TRUE(bc.Merge(std::move(c)).ok());
    ASSERT_TRUE(right.Merge(std::move(bc)).ok());
  }
  ExpectShardsEqual(left, right);
}

TEST(ShardTest, MergeRejectsMismatchedPlans) {
  IntervalDomain domain;
  PrivHPShard base = MakeShard(&domain, SmallOptions(2048));

  PrivHPOptions other_seed = SmallOptions(2048);
  other_seed.seed = 99;
  PrivHPShard seed_shard = MakeShard(&domain, other_seed);
  EXPECT_TRUE(base.Merge(std::move(seed_shard)).IsInvalidArgument());

  PrivHPOptions other_k = SmallOptions(2048);
  other_k.k = 32;  // changes sketch width (w = 2k)
  PrivHPShard k_shard = MakeShard(&domain, other_k);
  EXPECT_TRUE(base.Merge(std::move(k_shard)).IsInvalidArgument());

  HypercubeDomain other_domain(1);
  PrivHPShard domain_shard = MakeShard(&other_domain, SmallOptions(2048));
  EXPECT_TRUE(base.Merge(std::move(domain_shard)).IsInvalidArgument());
}

// The acceptance bar of the redesign: under a fixed seed, an S-shard
// build releases a generator whose serialized tree is byte-identical to
// the 1-shard build's.
TEST(ShardTest, ShardedBuildBitwiseIdenticalToSequential) {
  HypercubeDomain domain(2);
  const PrivHPOptions options = SmallOptions(4096);
  RandomEngine rng(11);
  const auto data = GenerateGaussianMixture(2, 4096, 3, 0.05, &rng);

  auto sequential = PrivHPBuilder::Make(&domain, options);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(sequential->AddAll(PointBatch::FromPoints(data)).ok());
  auto gen_seq = std::move(*sequential).Finish();
  ASSERT_TRUE(gen_seq.ok());

  for (int num_shards : {2, 3, 5}) {
    auto builder = PrivHPBuilder::Make(&domain, options);
    ASSERT_TRUE(builder.ok());
    std::vector<PrivHPShard> shards;
    for (int s = 0; s < num_shards; ++s) {
      auto shard = builder->NewShard();
      ASSERT_TRUE(shard.ok());
      shards.push_back(std::move(*shard));
    }
    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_TRUE(shards[i % num_shards].Add(data[i]).ok());
    }
    for (PrivHPShard& shard : shards) {
      ASSERT_TRUE(builder->AbsorbShard(std::move(shard)).ok());
    }
    EXPECT_EQ(builder->num_processed(), data.size());
    auto gen_sharded = std::move(*builder).Finish();
    ASSERT_TRUE(gen_sharded.ok());
    EXPECT_EQ(Serialized(*gen_seq), Serialized(*gen_sharded))
        << num_shards << " shards";
  }
}

TEST(ShardTest, BuildParallelMatchesSequentialBitwise) {
  HypercubeDomain domain(2);
  const PrivHPOptions options = SmallOptions(4096);
  RandomEngine rng(13);
  const auto data = GenerateGaussianMixture(2, 4096, 3, 0.05, &rng);

  auto scalar_builder = PrivHPBuilder::Make(&domain, options);
  ASSERT_TRUE(scalar_builder.ok());
  for (const Point& x : data) ASSERT_TRUE(scalar_builder->Add(x).ok());
  auto gen_scalar = std::move(*scalar_builder).Finish();
  ASSERT_TRUE(gen_scalar.ok());

  const auto staged = PointBatch::FromPoints(data);
  for (int threads : {1, 2, 3, 4, 7}) {
    PointBatchSource source(&staged);
    auto gen_par =
        PrivHPBuilder::BuildParallel(&domain, options, &source, threads);
    ASSERT_TRUE(gen_par.ok()) << gen_par.status();
    EXPECT_EQ(Serialized(*gen_scalar), Serialized(*gen_par))
        << threads << " threads";
  }
}

TEST(ShardTest, BuildParallelPropagatesWorkerErrors) {
  IntervalDomain domain;
  RandomEngine rng(15);
  PointBatch data = PointBatch::FromPoints(GenerateUniform(1, 2000, &rng));
  data.row(1500)[0] = 2.5;  // outside [0,1]
  PointBatchSource source(&data);
  auto generator =
      PrivHPBuilder::BuildParallel(&domain, SmallOptions(2000), &source, 4);
  EXPECT_FALSE(generator.ok());
  EXPECT_TRUE(generator.status().IsOutOfRange());
}

TEST(ShardTest, AccountantStillSumsToEpsilonAfterShardedBuild) {
  IntervalDomain domain;
  PrivHPOptions options = SmallOptions(4096);
  options.epsilon = 1.5;
  auto builder = PrivHPBuilder::Make(&domain, options);
  ASSERT_TRUE(builder.ok());
  RandomEngine rng(17);
  const auto data = PointBatch::FromPoints(GenerateUniform(1, 1000, &rng));
  for (int s = 0; s < 3; ++s) {
    auto shard = builder->NewShard();
    ASSERT_TRUE(shard.ok());
    ASSERT_TRUE(shard->AddAll(data).ok());
    ASSERT_TRUE(builder->AbsorbShard(std::move(*shard)).ok());
  }
  EXPECT_NEAR(builder->accountant().Spent(), 1.5, 1e-9);
  EXPECT_EQ(builder->accountant().ledger().size(),
            static_cast<size_t>(builder->plan().l_max) + 1);
  auto generator = std::move(*builder).Finish();
  ASSERT_TRUE(generator.ok());
}

TEST(ShardTest, AbsorbAfterFinishFails) {
  IntervalDomain domain;
  auto builder = PrivHPBuilder::Make(&domain, SmallOptions(512));
  ASSERT_TRUE(builder.ok());
  auto shard = builder->NewShard();
  ASSERT_TRUE(shard.ok());
  auto generator = std::move(*builder).Finish();
  ASSERT_TRUE(generator.ok());
  EXPECT_TRUE(
      builder->AbsorbShard(std::move(*shard)).IsFailedPrecondition());
}

TEST(ShardTest, SketchHashSeedDependsOnLevelAndSeed) {
  EXPECT_NE(SketchHashSeed(7, 3), SketchHashSeed(7, 4));
  EXPECT_NE(SketchHashSeed(7, 3), SketchHashSeed(8, 3));
  EXPECT_EQ(SketchHashSeed(7, 3), SketchHashSeed(7, 3));
}

}  // namespace
}  // namespace privhp
