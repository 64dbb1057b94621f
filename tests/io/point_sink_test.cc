#include "io/point_sink.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#include "baselines/nonprivate.h"
#include "common/macros.h"
#include "core/builder.h"
#include "domain/interval_domain.h"
#include "io/point_stream.h"

namespace privhp {
namespace {

// Conformance checks every PointSink implementation must satisfy:
// Add() counts accepted points, the move overload behaves like the
// copying one, AddAll() behaves like repeated Add().
void CheckSinkConformance(PointSink* sink) {
  const uint64_t before = sink->num_processed();
  ASSERT_TRUE(sink->Add({0.25}).ok());
  EXPECT_EQ(sink->num_processed(), before + 1);
  ASSERT_TRUE(sink->AddAll(PointBatch::FromPoints({{0.5}, {0.75}})).ok());
  EXPECT_EQ(sink->num_processed(), before + 3);
  Point moved = {0.125};
  ASSERT_TRUE(sink->Add(std::move(moved)).ok());
  EXPECT_EQ(sink->num_processed(), before + 4);
}

TEST(PointSinkTest, CollectingSinkConforms) {
  CollectingSink sink;
  CheckSinkConformance(&sink);
  EXPECT_EQ(sink.points().size(), 4u);
  EXPECT_EQ(sink.TakePoints().size(), 4u);
}

TEST(PointSinkTest, MoveAddTakesOwnershipWithoutCopying) {
  CollectingSink sink;
  Point p = {0.5};
  const double* storage = p.data();
  ASSERT_TRUE(sink.Add(std::move(p)).ok());
  // The collected point reuses the moved-in allocation: no copy was made
  // on the move path.
  ASSERT_EQ(sink.points().size(), 1u);
  EXPECT_EQ(sink.points()[0].data(), storage);
}

TEST(PointSinkTest, MoveAddStillValidatesAgainstDomain) {
  IntervalDomain domain;
  CollectingSink sink(&domain);
  EXPECT_TRUE(sink.Add(Point{1.5}).IsOutOfRange());
  EXPECT_TRUE(sink.Add(Point{0.5}).ok());
  EXPECT_EQ(sink.num_processed(), 1u);
}

// Read-only sinks (shard, builder, CSV writer) fall back to the base
// forwarding overload: a moved-in point must behave exactly like a
// copied one.
TEST(PointSinkTest, MoveAddForwardsForReadOnlySinks) {
  IntervalDomain domain;
  PrivHPOptions options;
  options.expected_n = 1024;
  auto builder = PrivHPBuilder::Make(&domain, options);
  ASSERT_TRUE(builder.ok());
  PointSink* sink = &*builder;
  ASSERT_TRUE(sink->Add(Point{0.5}).ok());
  EXPECT_EQ(sink->num_processed(), 1u);
}

TEST(PointSinkTest, CollectingSinkValidatesAgainstDomain) {
  IntervalDomain domain;
  CollectingSink sink(&domain);
  EXPECT_TRUE(sink.Add({0.5}).ok());
  EXPECT_TRUE(sink.Add({1.5}).IsOutOfRange());
  EXPECT_TRUE(sink.Add({0.5, 0.5}).IsInvalidArgument());
  EXPECT_EQ(sink.num_processed(), 1u);
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
  Point scratch;
  auto more = source.Next(&scratch);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

// A source that implements only Next(), so NextBatch is the base
// class's default.
class CountingSource : public PointSource {
 public:
  explicit CountingSource(int count) : count_(count) {}
  Result<bool> Next(Point* out) override {
    if (next_ >= count_) return false;
    *out = {next_++ * 0.1};
    return true;
  }

 private:
  int count_;
  int next_ = 0;
};

TEST(PointSinkTest, DefaultNextBatchLoopsNext) {
  CountingSource source(10);
  PointBatch batch;
  auto r1 = source.NextBatch(4, &batch);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r1, 4u);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch.row(3)[0], 3 * 0.1);
  auto r2 = source.NextBatch(100, &batch);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, 6u);
  ASSERT_EQ(batch.size(), 6u);
  EXPECT_EQ(batch.row(5)[0], 9 * 0.1);
  auto r3 = source.NextBatch(100, &batch);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(*r3, 0u);
  EXPECT_TRUE(batch.empty());
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
    Point scratch;
    auto more = source.Next(&scratch);
    ASSERT_TRUE(more.ok());
    EXPECT_FALSE(*more);
  }
  PointBatchSource unbacked(nullptr);
  PointBatch slice;
  EXPECT_TRUE(unbacked.NextBatch(4, &slice).status().IsInvalidArgument());
}

// Next and NextBatch share one cursor: mixing them neither skips nor
// repeats a point.
TEST(PointSinkTest, BatchSourceMixesNextWithNextBatch) {
  PointBatch data(1);
  for (int i = 0; i < 7; ++i) data.AppendPoint({i * 0.1});
  PointBatchSource source(&data);
  std::vector<Point> seen;
  Point x;
  PointBatch slice;
  for (int round = 0;; ++round) {
    if (round % 2 == 0) {
      auto more = source.Next(&x);
      ASSERT_TRUE(more.ok());
      if (!*more) break;
      seen.push_back(x);
    } else {
      auto n = source.NextBatch(2, &slice);
      ASSERT_TRUE(n.ok());
      if (*n == 0) break;
      slice.CopyTo(&seen);
    }
  }
  EXPECT_EQ(seen, data.ToPoints());
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
