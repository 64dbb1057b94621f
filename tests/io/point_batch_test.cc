// PointBatch round-trips: vector<Point> <-> arena <-> wire frame. The
// columnar paths (shard ingest, sampler output, socket streaming) all
// assume the arena layout matches both single Points and the wire
// point-batch frame bit-for-bit; these tests pin that equivalence,
// including non-full tail batches, dim-1, and sign/precision edge
// values that a float->text->float round trip would lose.

#include "domain/point_batch.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "io/socket_point_stream.h"

namespace privhp {
namespace {

std::vector<Point> EdgePoints() {
  // Values chosen to break lossy round trips: negative zero, denormal,
  // 1/3 (infinite binary expansion), extreme magnitudes.
  return {
      {-0.0, 0.25, 1.0 / 3.0},
      {5e-324, -1.0 / 3.0, 1e308},
      {std::numeric_limits<double>::min(), -2.5e-10, 42.0},
  };
}

TEST(PointBatchTest, AppendFormsAgreeAndRoundTripToPoints) {
  const std::vector<Point> points = EdgePoints();
  PointBatch via_point(3), via_points(3), via_flat(3), via_rows(3);
  for (const Point& p : points) via_point.AppendPoint(p);
  via_points.AppendPoints(points);
  const PointBatch from = PointBatch::FromPoints(points);
  via_flat.AppendFlat(from.data(), from.size());
  for (const Point& p : points) {
    std::memcpy(via_rows.AppendRow(), p.data(), 3 * sizeof(double));
  }

  EXPECT_EQ(via_point, via_points);
  EXPECT_EQ(via_point, via_flat);
  EXPECT_EQ(via_point, from);
  EXPECT_EQ(via_point, via_rows);
  ASSERT_EQ(via_point.size(), points.size());
  EXPECT_EQ(via_point.dim(), 3);
  EXPECT_EQ(via_point.ToPoints(), points);
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(via_point.At(i), points[i]);
    // Bit-exact, not just ==: -0.0 == 0.0 would pass operator== but the
    // arena must hold the original bit pattern.
    EXPECT_EQ(std::memcmp(via_point.row(i), points[i].data(),
                          3 * sizeof(double)),
              0);
  }
}

TEST(PointBatchTest, ResetKeepsCapacityClearKeepsDim) {
  PointBatch batch(2);
  batch.Reserve(100);
  for (int i = 0; i < 100; ++i) batch.AppendPoint({1.0 * i, 2.0 * i});
  const size_t bytes = batch.MemoryBytes();
  batch.Clear();
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_EQ(batch.dim(), 2);
  EXPECT_EQ(batch.MemoryBytes(), bytes);  // capacity survived Clear
  batch.Reset(5);
  EXPECT_EQ(batch.dim(), 5);
  EXPECT_TRUE(batch.empty());
}

TEST(PointBatchTest, AppendRowsReturnsWritableBlock) {
  PointBatch batch(2);
  batch.AppendPoint({9.0, 9.0});
  double* rows = batch.AppendRows(3);
  for (int i = 0; i < 6; ++i) rows[i] = 0.5 * i;
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch.At(0), Point({9.0, 9.0}));
  EXPECT_EQ(batch.At(2), Point({1.0, 1.5}));
  EXPECT_EQ(batch.At(3), Point({2.0, 2.5}));
}

TEST(PointBatchTest, DimOneBatchIsAFlatArray) {
  PointBatch batch(1);
  for (int i = 0; i < 7; ++i) batch.AppendPoint({static_cast<double>(i)});
  ASSERT_EQ(batch.size(), 7u);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(batch.data()[i], i);
}

TEST(PointBatchWireTest, EncodersAgreeOnPayloadBytes) {
  const std::vector<Point> points = EdgePoints();
  const PointBatch batch = PointBatch::FromPoints(points);
  const std::string from_flat = EncodePointBatch(batch.data(), 3, batch.size());
  const std::string from_batch = EncodePointBatch(batch);
  EXPECT_EQ(from_flat, from_batch);
  EXPECT_EQ(static_cast<uint8_t>(from_batch[0]), kPointBatchTag);
  // [tag][count:u32][dim:u32][count*dim doubles]
  EXPECT_EQ(from_batch.size(), 1 + 4 + 4 + points.size() * 3 * 8);
}

TEST(PointBatchWireTest, WireRoundTripIsBitExact) {
  const std::vector<Point> points = EdgePoints();
  const PointBatch batch = PointBatch::FromPoints(points);
  const std::string payload = EncodePointBatch(batch);

  PointBatch decoded;
  ASSERT_TRUE(DecodePointBatch(payload, 3, &decoded).ok());
  ASSERT_EQ(decoded.size(), batch.size());
  EXPECT_EQ(std::memcmp(decoded.data(), batch.data(),
                        batch.size() * 3 * sizeof(double)),
            0);
  EXPECT_EQ(decoded.ToPoints(), points);
}

TEST(PointBatchWireTest, DecodeAppendsAcrossFrames) {
  // A stream split into a full frame and a non-full tail must
  // reassemble into one arena, mirroring SocketPointSource delivery.
  PointBatch all(2);
  for (int i = 0; i < 10; ++i) {
    all.AppendPoint({0.1 * i, 0.2 * i});
  }
  const std::string head = EncodePointBatch(all.data(), 2, 8);
  const std::string tail = EncodePointBatch(all.row(8), 2, 2);

  PointBatch decoded;
  ASSERT_TRUE(DecodePointBatch(head, 2, &decoded).ok());
  ASSERT_TRUE(DecodePointBatch(tail, 2, &decoded).ok());
  EXPECT_EQ(decoded, all);
}

TEST(PointBatchWireTest, DecodeRejectsDimMismatchWithNonEmptyBatch) {
  PointBatch decoded(2);
  decoded.AppendPoint({1.0, 2.0});
  const std::string frame3 =
      EncodePointBatch(PointBatch::FromPoints({{1.0, 2.0, 3.0}}));
  // expected_dim = 0 skips the protocol-level check; the batch itself
  // must still refuse to mix dimensions.
  EXPECT_TRUE(DecodePointBatch(frame3, 0, &decoded).IsInvalidArgument());
  EXPECT_EQ(decoded.size(), 1u);  // untouched on error
}

TEST(PointBatchWireTest, EmptyFrameDecodesToNoPoints) {
  const std::string empty = EncodePointBatch(PointBatch(3));
  PointBatch decoded;
  ASSERT_TRUE(DecodePointBatch(empty, 3, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

}  // namespace
}  // namespace privhp
