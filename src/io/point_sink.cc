#include "io/point_sink.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace privhp {

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

Status CollectingSink::AddAll(const PointBatch& batch) {
  // Row by row, with no reserve: Drain appends batch after batch, and an
  // exact reserve per batch (as PointBatch::CopyTo does) would
  // reallocate the whole vector every time.
  for (size_t i = 0; i < batch.size(); ++i) {
    Point x = batch.At(i);
    if (domain_ != nullptr) PRIVHP_RETURN_NOT_OK(domain_->ValidatePoint(x));
    points_.push_back(std::move(x));
  }
  return Status::OK();
}

Status Drain(PointSource* source, PointSink* sink) {
  if (source == nullptr || sink == nullptr) {
    return Status::InvalidArgument("Drain requires a source and a sink");
  }
  // Sinks (shards, builders, socket sinks) consume the arena directly
  // and framed sources decode whole frames into it; memory stays bounded
  // by the batch size either way.
  PointBatch batch;
  for (;;) {
    PRIVHP_ASSIGN_OR_RETURN(size_t n, source->NextBatch(kDrainBatchSize,
                                                        &batch));
    if (n == 0) return Status::OK();
    PRIVHP_RETURN_NOT_OK(sink->AddAll(batch));
  }
}

}  // namespace privhp
