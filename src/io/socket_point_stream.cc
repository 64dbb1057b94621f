#include "io/socket_point_stream.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "io/wire_format.h"

namespace privhp {

std::string EncodePointBatch(const double* flat, uint32_t dim,
                             size_t count) {
  WireWriter w;
  w.PutU8(kPointBatchTag);
  w.PutU32(static_cast<uint32_t>(count));
  w.PutU32(count > 0 ? dim : 0);
  w.PutDoubleArray(flat, count * dim);
  return w.Take();
}

std::string EncodePointBatch(const PointBatch& batch) {
  return EncodePointBatch(batch.data(),
                          static_cast<uint32_t>(batch.dim()), batch.size());
}

std::string EncodePointStreamEnd(uint64_t total_points) {
  WireWriter w;
  w.PutU8(kPointStreamEndTag);
  w.PutU64(total_points);
  return w.Take();
}

Status DecodePointBatch(const std::string& payload, int expected_dim,
                        PointBatch* out) {
  WireReader r(payload);
  PRIVHP_ASSIGN_OR_RETURN(uint8_t tag, r.U8());
  if (tag != kPointBatchTag) {
    return Status::IOError("not a point batch frame");
  }
  PRIVHP_ASSIGN_OR_RETURN(uint32_t count, r.U32());
  PRIVHP_ASSIGN_OR_RETURN(uint32_t dim, r.U32());
  if (count > 0 && dim == 0) {
    return Status::IOError("point batch with zero dimension");
  }
  if (expected_dim > 0 && count > 0 &&
      dim != static_cast<uint32_t>(expected_dim)) {
    return Status::InvalidArgument(
        "point batch has dimension " + std::to_string(dim) +
        ", expected " + std::to_string(expected_dim));
  }
  // Every coordinate is an 8-byte double; a header whose count*dim
  // outruns the payload is malformed, and checking up front keeps the
  // declared dim from driving the arena's growth before any bytes are
  // verified.
  if (static_cast<uint64_t>(count) * dim > r.remaining() / 8) {
    return Status::IOError("point batch header exceeds frame payload");
  }
  if (count == 0) return r.ExpectEnd();
  const int d = static_cast<int>(dim);
  if (out->empty()) {
    if (out->dim() != d) out->Reset(d);
  } else if (out->dim() != d) {
    return Status::InvalidArgument(
        "point batch has dimension " + std::to_string(dim) +
        " but the receiving batch holds dimension " +
        std::to_string(out->dim()) + " points");
  }
  // The bounds guard above proved the coordinate block is fully present,
  // so this single bulk read cannot fail and the arena never holds
  // partially decoded rows.
  PRIVHP_RETURN_NOT_OK(r.ReadDoubles(out->AppendRows(count),
                                     static_cast<size_t>(count) * dim));
  return r.ExpectEnd();
}

SocketPointSink::SocketPointSink(FrameSendFn send_frame, size_t batch_size)
    : send_fn_(std::move(send_frame)),
      batch_size_(batch_size == 0 ? 1 : batch_size) {}

Status SocketPointSink::AddAll(const PointBatch& batch) {
  if (finished_) {
    return Status::FailedPrecondition("point stream already finished");
  }
  if (batch.empty()) return Status::OK();
  // A buffered point of another dimension would share a frame the
  // receiver must reject anyway, so fail it here with a usable message.
  if (buffer_.dim() != batch.dim()) {
    if (!buffer_.empty()) {
      return Status::InvalidArgument(
          "point has " + std::to_string(batch.dim()) +
          " coordinates but the stream carries " +
          std::to_string(buffer_.dim()) + "-dimensional points");
    }
    buffer_.Reset(batch.dim());
    buffer_.Reserve(batch_size_);
  }
  const size_t d = static_cast<size_t>(batch.dim());
  // Arena-to-arena slices at frame boundaries: no per-point work at all
  // between the sampler and the wire. The buffer stays strictly below
  // batch_size_ between calls, so room > 0 holds on entry and after
  // every Flush().
  for (size_t i = 0; i < batch.size();) {
    const size_t room = batch_size_ - buffer_.size();
    const size_t take = std::min(room, batch.size() - i);
    buffer_.AppendFlat(batch.data() + i * d, take);
    i += take;
    if (buffer_.size() >= batch_size_) PRIVHP_RETURN_NOT_OK(Flush());
  }
  return Status::OK();
}

Status SocketPointSink::Flush() {
  if (buffer_.empty()) return Status::OK();
  std::string payload = EncodePointBatch(buffer_);
  const size_t payload_size = payload.size();
  PRIVHP_RETURN_NOT_OK(send_fn_(std::move(payload)));
  num_sent_ += buffer_.size();
  bytes_sent_ += payload_size;
  buffer_.Clear();
  return Status::OK();
}

Status SocketPointSink::FinishStream() {
  if (finished_) {
    return Status::FailedPrecondition("point stream already finished");
  }
  PRIVHP_RETURN_NOT_OK(Flush());
  finished_ = true;
  std::string end = EncodePointStreamEnd(num_sent_);
  bytes_sent_ += end.size();
  return send_fn_(std::move(end));
}

SocketPointSource::SocketPointSource(FrameRecvFn recv_frame, int expected_dim)
    : recv_fn_(std::move(recv_frame)), expected_dim_(expected_dim) {}

Result<bool> SocketPointSource::RecvNext() {
  Result<bool> r = recv_fn_(&frame_);
  if (!r.ok() && r.status().IsFailedPrecondition()) cancelled_ = true;
  return r;
}

Status SocketPointSource::ConsumeEndFrame() {
  WireReader r(frame_);
  PRIVHP_RETURN_NOT_OK(r.U8().status());
  PRIVHP_ASSIGN_OR_RETURN(uint64_t total, r.U64());
  PRIVHP_RETURN_NOT_OK(r.ExpectEnd());
  if (total != num_received_) {
    return Status::IOError(
        "point stream declared " + std::to_string(total) +
        " points but delivered " + std::to_string(num_received_));
  }
  finished_ = true;
  return Status::OK();
}

Result<bool> SocketPointSource::RecvBatchFrame() {
  PRIVHP_ASSIGN_OR_RETURN(bool more, RecvNext());
  if (!more) {
    return Status::IOError("connection closed before end of point stream");
  }
  if (frame_.empty()) return Status::IOError("empty frame in point stream");
  bytes_received_ += frame_.size();
  if (static_cast<uint8_t>(frame_[0]) == kPointStreamEndTag) {
    PRIVHP_RETURN_NOT_OK(ConsumeEndFrame());
    return false;
  }
  ++num_batches_;
  return true;
}

Result<size_t> SocketPointSource::NextBatch(size_t max_points,
                                            PointBatch* out) {
  out->Clear();
  if (finished_ || max_points == 0) return size_t{0};
  // Decode consecutive frames straight into the arena until it holds
  // max_points or the stream ends, so the consumer sees full windows
  // whatever frame size the sender chose. Empty batch frames are legal;
  // the last frame decoded may carry the arena past max_points (a frame
  // goes through whole, as the contract allows). Each frame counts as it
  // is decoded, so an end frame met mid-arena checks its total against
  // every point delivered before it.
  while (out->size() < max_points) {
    PRIVHP_ASSIGN_OR_RETURN(bool more, RecvBatchFrame());
    if (!more) break;
    const size_t before = out->size();
    PRIVHP_RETURN_NOT_OK(DecodePointBatch(frame_, expected_dim_, out));
    num_received_ += out->size() - before;
  }
  return out->size();
}

Status SocketPointSource::SkipToEnd() {
  while (!finished_) {
    PRIVHP_ASSIGN_OR_RETURN(bool more, RecvNext());
    if (!more) {
      return Status::IOError("connection closed before end of point stream");
    }
    // Discard batches without decoding — the caller is already on an error
    // path; all that matters is regaining frame sync at the end marker.
    if (!frame_.empty() &&
        static_cast<uint8_t>(frame_[0]) == kPointStreamEndTag) {
      finished_ = true;
    }
  }
  return Status::OK();
}

}  // namespace privhp
