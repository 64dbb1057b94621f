// PointSource / PointSink over a framed socket: the plumbing that lets
// PrivHPBuilder::BuildParallel sit behind a network ingestion front end,
// and lets a server stream synthetic samples back without materializing
// them (bounded memory on both ends of the wire).
//
// Point frames (payload layout after the u32 frame length):
//   batch: [kPointBatchTag:u8][count:u32][dim:u32][count*dim doubles]
//   end:   [kPointStreamEndTag:u8][total:u64]
// A point stream is any number of batch frames terminated by one end
// frame whose `total` must equal the points delivered — a truncation
// check, since TCP gives no message boundaries across connection loss.
//
// The service protocol embeds these exact frames inside INGEST and
// SAMPLE exchanges, so CsvPointReader -> SocketPointSink on a client and
// SocketPointSource -> PrivHPShard on a server compose with no adapter.

#ifndef PRIVHP_IO_SOCKET_POINT_STREAM_H_
#define PRIVHP_IO_SOCKET_POINT_STREAM_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "common/status.h"
#include "domain/domain.h"
#include "io/point_sink.h"

namespace privhp {

/// \brief Frame transports for the point streams. The sink hands each
/// encoded frame payload to FrameSendFn; the source pulls the next frame
/// payload from FrameRecvFn (true = frame delivered, false = clean EOF,
/// FailedPrecondition = cancelled). The client plugs in its
/// connection's FrameWriter and FrameReader; the event-loop server plugs
/// in its connection outbox and ingest channel. Either way the frames
/// go through the one framing implementation in io/frame_socket.h.
using FrameSendFn = std::function<Status(std::string payload)>;
using FrameRecvFn = std::function<Result<bool>(std::string* payload)>;

/// \brief First payload byte of a point-batch frame.
inline constexpr uint8_t kPointBatchTag = 0x20;
/// \brief First payload byte of the end-of-stream frame.
inline constexpr uint8_t kPointStreamEndTag = 0x21;

/// \brief Encodes \p count row-major points of \p dim coordinates as one
/// batch-frame payload. The arena layout matches the wire layout, so on
/// a little-endian host the coordinate block is one append.
std::string EncodePointBatch(const double* flat, uint32_t dim, size_t count);
/// \brief Encodes a whole columnar batch as one batch-frame payload.
std::string EncodePointBatch(const PointBatch& batch);
/// \brief Encodes the end-of-stream payload carrying the stream total.
std::string EncodePointStreamEnd(uint64_t total_points);

/// \brief Decodes a batch-frame payload, appending to \p out. Every point
/// must have \p expected_dim coordinates when expected_dim > 0. The
/// coordinate block is bounds-checked against the payload, then copied
/// straight into the arena (one memcpy on little-endian hosts) — no
/// per-point allocation on the receive path. A non-empty \p out whose
/// dimension differs from the frame's is an error.
Status DecodePointBatch(const std::string& payload, int expected_dim,
                        PointBatch* out);

/// \brief PointSink that streams points in batch frames.
///
/// Buffers up to \p batch_size points (so the wire sees large frames, not
/// per-point writes) and flushes automatically; FinishStream() flushes
/// the tail and sends the end frame. Every encoded frame payload goes to
/// \p send_frame.
class SocketPointSink : public PointSink {
 public:
  explicit SocketPointSink(FrameSendFn send_frame, size_t batch_size = 1024);

  // The buffer is columnar, so the move overload gains nothing over the
  // copy; the using-declaration keeps both Add signatures visible.
  using PointSink::Add;
  Status Add(const Point& x) override;
  /// \brief Columnar append: arena rows copy into the wire buffer (also
  /// an arena) in frame-sized slices — the SAMPLE hot path
  /// (CompiledSampler::GenerateTo) lands here with zero per-point work.
  Status AddAll(const PointBatch& batch) override;
  uint64_t num_processed() const override { return num_sent_; }

  /// \brief Wire payload bytes flushed so far (batch + end frames) —
  /// what the server's per-op bytes-out histogram records for SAMPLE.
  uint64_t bytes_sent() const { return bytes_sent_; }

  /// \brief Sends any buffered points now.
  Status Flush();

  /// \brief Flushes and sends the end frame; no Add() afterwards.
  Status FinishStream();

 private:
  FrameSendFn send_fn_;
  size_t batch_size_;
  // Pending points, columnar: Flush() encodes the arena as one frame
  // payload (the arena layout IS the wire layout). Dimension is set by
  // the first point and must stay fixed for the stream's lifetime.
  PointBatch buffer_;
  uint64_t num_sent_ = 0;
  uint64_t bytes_sent_ = 0;
  bool finished_ = false;
};

/// \brief PointSource that reads a point stream frame by frame.
///
/// Next() yields points one at a time out of the received batch frames
/// and returns false once the end frame arrives (after verifying the
/// stream total). Any non-point frame is an error.
class SocketPointSource : public PointSource {
 public:
  /// \param recv_frame Delivers the frames. It owns its own blocking,
  /// timeout and cancel policy; a FailedPrecondition from it marks the
  /// source cancelled.
  /// \param expected_dim When > 0, every received point must have this
  /// many coordinates.
  explicit SocketPointSource(FrameRecvFn recv_frame, int expected_dim = 0);

  Result<bool> Next(Point* out) override;

  /// \brief Points a Next() caller left staged go first (up to
  /// \p max_points of them). Otherwise consecutive frames decode straight
  /// into the arena (one bounds-checked copy per frame) until it holds
  /// \p max_points or the stream ends, so the server INGEST path goes
  /// wire -> arena -> PrivHPShard::AddBatch in full windows whatever the
  /// client's frame size. The frame that reaches \p max_points goes in
  /// whole, so the batch may exceed it by less than one frame.
  Result<size_t> NextBatch(size_t max_points, PointBatch* out) override;

  /// \brief Reads and discards frames until the end frame (or EOF/error):
  /// lets a server that failed mid-ingest keep the connection in protocol
  /// sync so it can still deliver the error response.
  Status SkipToEnd();

  /// \brief Points yielded so far.
  uint64_t num_received() const { return num_received_; }

  /// \brief Batch frames received so far (the ingest pipeline's batch
  /// counter; the end frame is not counted).
  uint64_t num_batches() const { return num_batches_; }

  /// \brief Wire payload bytes received so far (batch + end frames) —
  /// what the server's per-op bytes-in histogram records for INGEST.
  uint64_t bytes_received() const { return bytes_received_; }

  /// \brief True once the end frame has been consumed.
  bool finished() const { return finished_; }

  /// \brief True if the transport cancelled a read (shutdown or idle
  /// timeout) — lets callers tell a cancelled stream (no live peer to
  /// resync with) from an ordinary decode error.
  bool cancelled() const { return cancelled_; }

 private:
  Result<bool> FillBuffer();
  /// Receives the next frame into frame_, noting a cancellation.
  Result<bool> RecvNext();
  /// Receives and classifies the next frame — the one protocol step
  /// Next() and NextBatch() share: true means frame_ holds a point
  /// batch to decode, false means the stream ended cleanly (end frame
  /// verified and consumed).
  Result<bool> RecvBatchFrame();
  /// Verifies the end frame sitting in frame_ and marks the stream done.
  Status ConsumeEndFrame();

  FrameRecvFn recv_fn_;
  int expected_dim_;
  // The last decoded frame, staged for Next(): rows [cursor_, size) are
  // still to be handed out.
  PointBatch buffer_;
  size_t cursor_ = 0;
  std::string frame_;
  uint64_t num_received_ = 0;
  uint64_t num_batches_ = 0;
  uint64_t bytes_received_ = 0;
  bool finished_ = false;
  bool cancelled_ = false;
};

}  // namespace privhp

#endif  // PRIVHP_IO_SOCKET_POINT_STREAM_H_
