// Uniform producer/consumer interfaces for point streams.
//
// Points move between the layers in columnar PointBatch windows: a
// PointSource hands out batches (NextBatch) and a PointSink takes them
// (AddAll). Shards, builders, baselines, CSV files and sockets all sit
// behind these two calls, so any source can feed any consumer (Drain) —
// including several sinks in parallel, which is how BuildParallel
// partitions one stream across worker shards. The one-point form of the
// paper's Algorithm 1 is PrivHPShard::Add / PrivHPBuilder::Add, not part
// of either interface.

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

  /// \brief Processes a columnar batch: shards ingest the arena directly
  /// and socket sinks encode wire frames straight from it.
  virtual Status AddAll(const PointBatch& batch) = 0;

  /// \brief Points accepted so far (rejected points do not count).
  virtual uint64_t num_processed() const = 0;

 protected:
  /// \brief Not part of the interface and never called through it: the
  /// sinks in perfbench/ still declare an override of this signature,
  /// and PrivHPShard/PrivHPBuilder expose their scalar Add under it.
  virtual Status Add(const Point&) {
    return Status::NotImplemented("PointSink takes points through AddAll");
  }
};

/// \brief A producer of streamed points (file readers, batches, sockets).
class PointSource {
 public:
  virtual ~PointSource() = default;

  /// \brief Reads the next batch of points into \p out (cleared first;
  /// its dimension is the source's to set) and returns the number read;
  /// 0 means end-of-stream, and malformed input is an error Status.
  /// \p max_points is advisory: sources with natural framing (a decoded
  /// socket frame) may hand over a whole frame even when it is larger,
  /// so callers must accept any non-empty batch.
  virtual Result<size_t> NextBatch(size_t max_points, PointBatch* out) = 0;

 protected:
  /// \brief Not part of the interface and never called through it: the
  /// source in perfbench/ still declares an override of this signature.
  virtual Result<bool> Next(Point*) {
    return Status::NotImplemented("PointSource reads through NextBatch");
  }
};

/// \brief PointSource over an in-memory columnar batch (not owned):
/// NextBatch hands out consecutive slices of at most max_points rows.
class PointBatchSource : public PointSource {
 public:
  explicit PointBatchSource(const PointBatch* batch) : batch_(batch) {}

  Result<size_t> NextBatch(size_t max_points, PointBatch* out) override;

 private:
  const PointBatch* batch_;
  size_t next_ = 0;
};

/// \brief PointSink that materializes the stream; adapts vector-built
/// consumers (PMM, the flat histogram, ...) to streaming plumbing.
class CollectingSink : public PointSink {
 public:
  /// \param domain Optional; when set, each row is validated before it
  /// is kept, and AddAll stops at the first invalid one (rows before it
  /// stay).
  explicit CollectingSink(const Domain* domain = nullptr)
      : domain_(domain) {}

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

/// \brief Pumps \p source dry into \p sink (NextBatch -> AddAll). The
/// batches travel as one reused columnar PointBatch — no per-point
/// allocation anywhere between the source and the sink. Stops at the
/// first error from either side and returns it; a sink that rejects a
/// batch atomically (PrivHPShard) is left without any of that batch's
/// points.
Status Drain(PointSource* source, PointSink* sink);

}  // namespace privhp

#endif  // PRIVHP_IO_POINT_SINK_H_
