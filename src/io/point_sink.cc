#include "io/point_sink.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace privhp {

Status PointSink::AddAll(const PointBatch& batch) {
  // One scratch point reused across rows; semantics match Add-per-point
  // exactly (including stopping at the first rejected point).
  Point x;
  const size_t n = batch.size();
  for (size_t i = 0; i < n; ++i) {
    const double* row = batch.row(i);
    x.assign(row, row + batch.dim());
    PRIVHP_RETURN_NOT_OK(Add(x));
  }
  return Status::OK();
}

Result<size_t> PointSource::NextBatch(size_t max_points, PointBatch* out) {
  out->Clear();
  Point x;
  size_t n = 0;
  while (n < max_points) {
    PRIVHP_ASSIGN_OR_RETURN(bool more, Next(&x));
    if (!more) break;
    if (x.empty()) {
      return Status::InvalidArgument(
          "point batch cannot hold zero-coordinate points");
    }
    if (out->dim() != static_cast<int>(x.size())) {
      if (!out->empty()) {
        return Status::InvalidArgument(
            "mixed point dimensions in one batch");
      }
      out->Reset(static_cast<int>(x.size()));
    }
    out->AppendPoint(x);
    ++n;
  }
  return n;
}

Result<bool> PointBatchSource::Next(Point* out) {
  if (batch_ == nullptr) {
    return Status::InvalidArgument("batch point source has no backing data");
  }
  if (next_ >= batch_->size()) return false;
  *out = batch_->At(next_++);
  return true;
}

Result<size_t> PointBatchSource::NextBatch(size_t max_points,
                                           PointBatch* out) {
  if (batch_ == nullptr) {
    return Status::InvalidArgument("batch point source has no backing data");
  }
  const size_t take = std::min(max_points, batch_->size() - next_);
  if (take == 0) {
    out->Clear();
    return size_t{0};
  }
  out->Reset(batch_->dim());
  out->AppendFlat(batch_->row(next_), take);
  next_ += take;
  return take;
}

Status CollectingSink::Add(const Point& x) {
  if (domain_ != nullptr) PRIVHP_RETURN_NOT_OK(domain_->ValidatePoint(x));
  points_.push_back(x);
  return Status::OK();
}

Status CollectingSink::Add(Point&& x) {
  if (domain_ != nullptr) PRIVHP_RETURN_NOT_OK(domain_->ValidatePoint(x));
  points_.push_back(std::move(x));
  return Status::OK();
}

Status CollectingSink::AddAll(const PointBatch& batch) {
  if (domain_ != nullptr) {
    // Per-row validation preserves Add()'s stop-at-first-failure
    // semantics (rows before the bad one are kept).
    const size_t n = batch.size();
    points_.reserve(points_.size() + n);
    for (size_t i = 0; i < n; ++i) {
      Point x = batch.At(i);
      PRIVHP_RETURN_NOT_OK(domain_->ValidatePoint(x));
      points_.push_back(std::move(x));
    }
    return Status::OK();
  }
  batch.CopyTo(&points_);
  return Status::OK();
}

Status Drain(PointSource* source, PointSink* sink) {
  if (source == nullptr || sink == nullptr) {
    return Status::InvalidArgument("Drain requires a source and a sink");
  }
  // Pump columnar batches, not points: batching sinks (shards, builders,
  // socket sinks) consume the arena directly and framed sources decode
  // whole frames into it; memory stays bounded by the batch size either
  // way.
  PointBatch batch;
  for (;;) {
    PRIVHP_ASSIGN_OR_RETURN(size_t n, source->NextBatch(kDrainBatchSize,
                                                        &batch));
    if (n == 0) return Status::OK();
    PRIVHP_RETURN_NOT_OK(sink->AddAll(batch));
  }
}

}  // namespace privhp
