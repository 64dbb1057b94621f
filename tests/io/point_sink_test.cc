#include "io/point_sink.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "baselines/nonprivate.h"
#include "common/macros.h"
#include "core/builder.h"
#include "domain/interval_domain.h"
#include "io/point_stream.h"

namespace privhp {
namespace {

// Conformance checks every PointSink implementation must satisfy:
// AddAll() counts every accepted row, and an empty batch is a no-op.
void CheckSinkConformance(PointSink* sink) {
  const uint64_t before = sink->num_processed();
  ASSERT_TRUE(sink->AddAll(PointBatch::FromPoints({{0.25}})).ok());
  EXPECT_EQ(sink->num_processed(), before + 1);
  ASSERT_TRUE(sink->AddAll(PointBatch::FromPoints({{0.5}, {0.75}})).ok());
  EXPECT_EQ(sink->num_processed(), before + 3);
  ASSERT_TRUE(sink->AddAll(PointBatch(1)).ok());
  EXPECT_EQ(sink->num_processed(), before + 3);
}

TEST(PointSinkTest, CollectingSinkConforms) {
  CollectingSink sink;
  CheckSinkConformance(&sink);
  EXPECT_EQ(sink.points().size(), 3u);
  EXPECT_EQ(sink.TakePoints().size(), 3u);
}

TEST(PointSinkTest, CollectingSinkValidatesAgainstDomain) {
  IntervalDomain domain;
  CollectingSink sink(&domain);
  EXPECT_TRUE(sink.AddAll(PointBatch::FromPoints({{0.5}})).ok());
  EXPECT_TRUE(sink.AddAll(PointBatch::FromPoints({{0.5, 0.5}}))
                  .IsInvalidArgument());
  // The first invalid row stops the batch; the rows before it stay.
  EXPECT_TRUE(sink.AddAll(PointBatch::FromPoints({{0.25}, {1.5}, {0.75}}))
                  .IsOutOfRange());
  EXPECT_EQ(sink.points(), (std::vector<Point>{{0.5}, {0.25}}));
}

TEST(PointSinkTest, ResamplerConforms) {
  NonPrivateResampler resampler;
  CheckSinkConformance(&resampler);
  RandomEngine rng(1);
  EXPECT_EQ(resampler.Generate(5, &rng).size(), 5u);
}

TEST(PointSinkTest, ShardAndBuilderConform) {
  IntervalDomain domain;
  PrivHPOptions options;
  options.expected_n = 1024;
  auto builder = PrivHPBuilder::Make(&domain, options);
  ASSERT_TRUE(builder.ok());
  CheckSinkConformance(&*builder);
  auto shard = builder->NewShard();
  ASSERT_TRUE(shard.ok());
  CheckSinkConformance(&*shard);
}

TEST(PointSinkTest, BatchSourceDrainsIntoSink) {
  const std::vector<Point> data = {{0.1}, {0.2}, {0.3}};
  const PointBatch batch = PointBatch::FromPoints(data);
  PointBatchSource source(&batch);
  CollectingSink sink;
  ASSERT_TRUE(Drain(&source, &sink).ok());
  EXPECT_EQ(sink.points(), data);
  // A drained source stays at EOF.
  PointBatch slice;
  auto more = source.NextBatch(4, &slice);
  ASSERT_TRUE(more.ok());
  EXPECT_EQ(*more, 0u);
}

// The batch source hands out consecutive max_points slices, then the
// tail, then end-of-stream.
TEST(PointSinkTest, BatchSourceSlicesAtMaxPointsThenTail) {
  PointBatch data(2);
  for (int i = 0; i < 10; ++i) data.AppendPoint({i * 0.1, i * 0.2});
  PointBatchSource source(&data);
  PointBatch slice;
  std::vector<size_t> sizes;
  for (;;) {
    auto n = source.NextBatch(4, &slice);
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
    ASSERT_EQ(slice.size(), *n);
    ASSERT_EQ(slice.dim(), 2);
    for (size_t i = 0; i < *n; ++i) {
      EXPECT_EQ(slice.At(i), data.At(4 * sizes.size() + i));
    }
    sizes.push_back(*n);
  }
  EXPECT_EQ(sizes, (std::vector<size_t>{4, 4, 2}));
  EXPECT_TRUE(slice.empty());
}

TEST(PointSinkTest, BatchSourceOverEmptyBatchEndsAtOnce) {
  for (const PointBatch& empty : {PointBatch(), PointBatch(3)}) {
    PointBatchSource source(&empty);
    PointBatch slice(1);
    slice.AppendPoint({0.5});
    auto n = source.NextBatch(4, &slice);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 0u);
    EXPECT_TRUE(slice.empty());
  }
  PointBatchSource unbacked(nullptr);
  PointBatch slice;
  EXPECT_TRUE(unbacked.NextBatch(4, &slice).status().IsInvalidArgument());
}

TEST(PointSinkTest, DrainStopsAtFirstSinkError) {
  IntervalDomain domain;
  const PointBatch data = PointBatch::FromPoints({{0.1}, {1.7}, {0.3}});
  PointBatchSource source(&data);
  CollectingSink sink(&domain);
  EXPECT_TRUE(Drain(&source, &sink).IsOutOfRange());
  EXPECT_EQ(sink.num_processed(), 1u);
}

TEST(PointSinkTest, DrainRequiresBothEnds) {
  CollectingSink sink;
  const PointBatch data;
  PointBatchSource source(&data);
  EXPECT_TRUE(Drain(nullptr, &sink).IsInvalidArgument());
  EXPECT_TRUE(Drain(&source, nullptr).IsInvalidArgument());
}

// CsvPointReader is a PointSource: the same plumbing that feeds shards
// reads files.
TEST(PointSinkTest, CsvReaderFeedsSinkThroughDrain) {
  const std::string path = ::testing::TempDir() + "/point_sink_test.csv";
  {
    std::ofstream out(path);
    out << "# comment\n0.1,0.2\n\n0.3,0.4\n";
  }
  auto reader = CsvPointReader::Open(path, 2);
  ASSERT_TRUE(reader.ok());
  CollectingSink sink;
  ASSERT_TRUE(Drain(&*reader, &sink).ok());
  const std::vector<Point> expected = {{0.1, 0.2}, {0.3, 0.4}};
  EXPECT_EQ(sink.points(), expected);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace privhp
