// Uniform producer/consumer interfaces for point streams.
//
// The build side of PrivHP is linear: shards, builders and baselines all
// consume a stream one point at a time. PointSink is the consumer
// interface they share, and PointSource is the producer interface file
// readers, sockets and in-memory batches share, so any source can feed any
// consumer (Drain) — including several sinks in parallel, which is how
// BuildParallel partitions one stream across worker shards.

#ifndef PRIVHP_IO_POINT_SINK_H_
#define PRIVHP_IO_POINT_SINK_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "domain/domain.h"

namespace privhp {

/// \brief A consumer of streamed points (shards, builders, baselines).
class PointSink {
 public:
  virtual ~PointSink() = default;

  /// \brief Processes one stream element.
  virtual Status Add(const Point& x) = 0;

  /// \brief Move-accepting overload for producers handing over freshly
  /// built points (the sampling hot path): storing sinks take ownership
  /// instead of copying. Default forwards to the const-ref overload, so
  /// read-only sinks need not override it.
  virtual Status Add(Point&& x) { return Add(static_cast<const Point&>(x)); }

  /// \brief Processes a columnar batch (the zero-allocation hot path):
  /// shards ingest the arena directly and socket sinks encode wire
  /// frames straight from it. Default stages one reused scratch Point
  /// per row and forwards to Add, so point-at-a-time sinks need not
  /// override.
  virtual Status AddAll(const PointBatch& batch);

  /// \brief Points accepted so far (rejected points do not count).
  virtual uint64_t num_processed() const = 0;
};

/// \brief A producer of streamed points (file readers, batches, sockets).
class PointSource {
 public:
  virtual ~PointSource() = default;

  /// \brief Reads the next point into \p out. Returns false at
  /// end-of-stream, an error Status on malformed input.
  virtual Result<bool> Next(Point* out) = 0;

  /// \brief Reads the next batch of points into \p out (cleared first;
  /// its dimension is the source's to set) and returns the number read;
  /// 0 means end-of-stream. \p max_points is advisory: sources with
  /// natural framing (a decoded socket frame) may hand over a whole
  /// frame even when it is larger, so callers must accept any non-empty
  /// batch. The default loops Next() into the arena; file and socket
  /// sources override it to parse or decode straight into it.
  virtual Result<size_t> NextBatch(size_t max_points, PointBatch* out);
};

/// \brief PointSource over an in-memory columnar batch (not owned):
/// NextBatch hands out consecutive slices of at most max_points rows.
class PointBatchSource : public PointSource {
 public:
  explicit PointBatchSource(const PointBatch* batch) : batch_(batch) {}

  Result<bool> Next(Point* out) override;
  Result<size_t> NextBatch(size_t max_points, PointBatch* out) override;

 private:
  const PointBatch* batch_;
  size_t next_ = 0;
};

/// \brief PointSink that materializes the stream; adapts vector-built
/// consumers (PMM, the flat histogram, ...) to streaming plumbing.
class CollectingSink : public PointSink {
 public:
  /// \param domain Optional; when set, points are validated on Add.
  explicit CollectingSink(const Domain* domain = nullptr)
      : domain_(domain) {}

  Status Add(const Point& x) override;
  Status Add(Point&& x) override;
  /// \brief Appends arena rows without a per-row scratch staging point.
  Status AddAll(const PointBatch& batch) override;
  uint64_t num_processed() const override { return points_.size(); }

  const std::vector<Point>& points() const { return points_; }
  std::vector<Point> TakePoints() { return std::move(points_); }

 private:
  const Domain* domain_;
  std::vector<Point> points_;
};

/// \brief Points per batch Drain asks its source for: one
/// PrivHPShard::kWindow (core/shard.h asserts the two are equal), so a
/// builder fed by Drain sorts and updates whole windows.
inline constexpr size_t kDrainBatchSize = 16384;

/// \brief Pumps \p source dry into \p sink in batches (NextBatch ->
/// AddAll), so batching sinks see whole batches rather than single
/// points. The batches travel as one reused columnar PointBatch — no
/// per-point allocation anywhere between a batching source and a
/// batching sink. Stops at the first error from either side and returns
/// it; a sink that rejects a batch atomically (PrivHPShard) is left
/// without any of that batch's points.
Status Drain(PointSource* source, PointSink* sink);

}  // namespace privhp

#endif  // PRIVHP_IO_POINT_SINK_H_
