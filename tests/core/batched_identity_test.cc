// Batched-vs-scalar identity: the three ingest flavours — per-point Add,
// one columnar AddBatch(PointBatch), and the same batch streamed from a
// PointBatchSource — must leave bit-identical shard state (exact
// counters and sketch cells) and produce byte-identical released
// artifacts, at every SIMD level this binary can run. This is the
// always-on contract that lets the SIMD kernels replace the scalar
// arithmetic in the ingest hot path: not close, identical.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "common/simd.h"
#include "core/builder.h"
#include "core/shard.h"
#include "domain/hypercube_domain.h"
#include "domain/interval_domain.h"
#include "hierarchy/tree_serialization.h"
#include "io/point_sink.h"

namespace privhp {
namespace {

PrivHPOptions IdentityOptions(uint64_t n) {
  PrivHPOptions options;
  options.epsilon = 1.0;
  options.k = 8;
  options.expected_n = n;
  options.seed = 21;
  return options;
}

std::vector<Point> SkewedData(int dim, size_t n, uint64_t seed) {
  RandomEngine rng(seed);
  std::vector<Point> data;
  data.reserve(n);
  Point p(dim);
  for (size_t i = 0; i < n; ++i) {
    for (int c = 0; c < dim; ++c) {
      p[c] = rng.UniformDouble() * rng.UniformDouble();
    }
    data.push_back(p);
  }
  return data;
}

PrivHPShard MakeShard(const Domain* domain, const PrivHPOptions& options) {
  auto builder = PrivHPBuilder::Make(domain, options);
  PRIVHP_CHECK(builder.ok());
  auto shard = builder->NewShard();
  PRIVHP_CHECK(shard.ok());
  return std::move(*shard);
}

// Exact equality on every counter and sketch cell — EXPECT_EQ on the
// doubles, not EXPECT_DOUBLE_EQ: the contract is bitwise.
void ExpectShardStateIdentical(const PrivHPShard& a, const PrivHPShard& b,
                               const char* label) {
  ASSERT_EQ(a.counts().size(), b.counts().size());
  for (size_t i = 0; i < a.counts().size(); ++i) {
    ASSERT_EQ(a.counts()[i], b.counts()[i]) << label << ": counter " << i;
  }
  ASSERT_EQ(a.sketches().size(), b.sketches().size());
  for (size_t s = 0; s < a.sketches().size(); ++s) {
    const CountMinSketch& sa = a.sketches()[s];
    const CountMinSketch& sb = b.sketches()[s];
    ASSERT_EQ(sa.depth(), sb.depth());
    ASSERT_EQ(sa.width(), sb.width());
    for (size_t row = 0; row < sa.depth(); ++row) {
      for (size_t col = 0; col < sa.width(); ++col) {
        ASSERT_EQ(sa.CellValue(row, col), sb.CellValue(row, col))
            << label << ": sketch " << s << " cell (" << row << ", " << col
            << ")";
      }
    }
  }
}

class BatchedIdentityTest : public ::testing::TestWithParam<int> {
 protected:
  int dim() const { return GetParam(); }
};

TEST_P(BatchedIdentityTest, ThreeIngestFlavoursLeaveIdenticalShardState) {
  IntervalDomain interval;
  HypercubeDomain cube(dim() > 1 ? dim() : 2);
  const Domain* domain =
      dim() == 1 ? static_cast<const Domain*>(&interval) : &cube;
  const size_t n = 4096;
  const PrivHPOptions options = IdentityOptions(n);
  const std::vector<Point> data = SkewedData(dim(), n, 400 + dim());
  const PointBatch staged = PointBatch::FromPoints(data);

  PrivHPShard scalar = MakeShard(domain, options);
  for (const Point& x : data) ASSERT_TRUE(scalar.Add(x).ok());

  PrivHPShard columnar = MakeShard(domain, options);
  ASSERT_TRUE(columnar.AddBatch(staged).ok());
  ExpectShardStateIdentical(scalar, columnar, "columnar batch");

  PrivHPShard drained = MakeShard(domain, options);
  PointBatchSource source(&staged);
  ASSERT_TRUE(Drain(&source, &drained).ok());
  ExpectShardStateIdentical(scalar, drained, "drained batch source");
}

// The columnar path must match the scalar baseline at EVERY kernel tier
// the host can run, not just the widest one — this is the ctest face of
// the runtime-dispatch contract (the bench gate checks only the active
// level).
TEST_P(BatchedIdentityTest, ColumnarMatchesScalarAtEverySimdLevel) {
  IntervalDomain interval;
  HypercubeDomain cube(dim() > 1 ? dim() : 2);
  const Domain* domain =
      dim() == 1 ? static_cast<const Domain*>(&interval) : &cube;
  const size_t n = 2048;
  const PrivHPOptions options = IdentityOptions(n);
  const std::vector<Point> data = SkewedData(dim(), n, 500 + dim());
  const PointBatch staged = PointBatch::FromPoints(data);

  PrivHPShard scalar = MakeShard(domain, options);
  for (const Point& x : data) ASSERT_TRUE(scalar.Add(x).ok());

  const int widest = static_cast<int>(DetectedSimdLevel());
  for (int level = 0; level <= widest; ++level) {
    ForceSimdLevel(static_cast<SimdLevel>(level));
    PrivHPShard columnar = MakeShard(domain, options);
    ASSERT_TRUE(columnar.AddBatch(staged).ok());
    ExpectShardStateIdentical(
        scalar, columnar,
        SimdLevelName(static_cast<SimdLevel>(level)).c_str());
  }
  ClearForcedSimdLevel();
}

// Released artifacts — after Laplace noise, growth, and consistency —
// must serialize byte-identically across the ingest flavours (the
// streamed one through a 2-thread BuildParallel): identical shard state
// plus a seeded noise stream leaves nothing downstream to diverge.
TEST_P(BatchedIdentityTest, ReleasedArtifactsAreByteIdentical) {
  IntervalDomain interval;
  HypercubeDomain cube(dim() > 1 ? dim() : 2);
  const Domain* domain =
      dim() == 1 ? static_cast<const Domain*>(&interval) : &cube;
  const size_t n = 4096;
  const PrivHPOptions options = IdentityOptions(n);
  const std::vector<Point> data = SkewedData(dim(), n, 600 + dim());
  const PointBatch staged = PointBatch::FromPoints(data);

  auto serialize = [](const PrivHPGenerator& g) {
    std::stringstream ss;
    PRIVHP_CHECK(SaveTree(g.tree(), &ss).ok());
    return ss.str();
  };

  auto scalar_builder = PrivHPBuilder::Make(domain, options);
  auto columnar_builder = PrivHPBuilder::Make(domain, options);
  ASSERT_TRUE(scalar_builder.ok() && columnar_builder.ok());
  for (const Point& x : data) ASSERT_TRUE(scalar_builder->Add(x).ok());
  ASSERT_TRUE(columnar_builder->AddAll(staged).ok());

  auto scalar_gen = std::move(*scalar_builder).Finish();
  auto columnar_gen = std::move(*columnar_builder).Finish();
  PointBatchSource source(&staged);
  auto streamed_gen = PrivHPBuilder::BuildParallel(domain, options, &source, 2);
  ASSERT_TRUE(scalar_gen.ok() && columnar_gen.ok() && streamed_gen.ok());

  const std::string scalar_bytes = serialize(*scalar_gen);
  EXPECT_EQ(scalar_bytes, serialize(*columnar_gen));
  EXPECT_EQ(scalar_bytes, serialize(*streamed_gen));
}

INSTANTIATE_TEST_SUITE_P(Dims, BatchedIdentityTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace privhp
