#include "service/client.h"

#include <limits>
#include <utility>

#include "common/macros.h"
#include "io/socket_point_stream.h"

namespace privhp {

Result<PrivHPClient> PrivHPClient::ConnectTcp(const std::string& host,
                                              uint16_t port,
                                              const std::string& auth_token) {
  PRIVHP_ASSIGN_OR_RETURN(Socket sock, privhp::ConnectTcp(host, port));
  PrivHPClient client(std::move(sock));
  if (!auth_token.empty()) {
    PRIVHP_RETURN_NOT_OK(client.Auth(auth_token));
  }
  return client;
}

Result<PrivHPClient> PrivHPClient::ConnectUnix(const std::string& path) {
  PRIVHP_ASSIGN_OR_RETURN(Socket sock, privhp::ConnectUnix(path));
  return PrivHPClient(std::move(sock));
}

Status PrivHPClient::Send(std::string frame) {
  PRIVHP_RETURN_NOT_OK(writer_.Enqueue(std::move(frame)));
  for (;;) {
    // The socket blocks, so a short write means a signal interrupted
    // it: pump again from the byte it stopped at.
    PRIVHP_ASSIGN_OR_RETURN(bool drained, writer_.Pump(sock_));
    if (drained) return Status::OK();
  }
}

Result<bool> PrivHPClient::Receive(std::string* frame) {
  PRIVHP_ASSIGN_OR_RETURN(FrameReader::Event event, reader_.Poll(sock_));
  if (event == FrameReader::Event::kEof) return false;
  // The socket blocks, so Poll waits for a whole frame.
  PRIVHP_DCHECK(event == FrameReader::Event::kFrame);
  // A swap, not a move: the reader goes on reusing the caller's buffer.
  frame->swap(reader_.frame());
  return true;
}

Status PrivHPClient::Call(std::string request, std::string* frame,
                          WireReader* payload) {
  PRIVHP_RETURN_NOT_OK(Send(std::move(request)));
  return RecvResponse(frame, payload);
}

Status PrivHPClient::RecvResponse(std::string* frame, WireReader* payload) {
  PRIVHP_ASSIGN_OR_RETURN(bool more, Receive(frame));
  if (!more) return Status::IOError("server closed the connection");
  return ParseResponse(*frame, payload);
}

Status PrivHPClient::Auth(const std::string& token) {
  std::string frame;
  WireReader payload;
  return Call(EncodeAuthRequest(token), &frame, &payload);
}

Status PrivHPClient::Ping() {
  std::string frame;
  WireReader payload;
  return Call(EncodePingRequest(), &frame, &payload);
}

// --- Pipelined mode -------------------------------------------------

Status PrivHPClient::SendPing() {
  return Send(EncodePingRequest());
}

Status PrivHPClient::SendRangeMass(const std::string& artifact, CellId cell) {
  return Send(EncodeRangeRequest(artifact, static_cast<uint32_t>(cell.level),
                                 cell.index));
}

Status PrivHPClient::SendQuantiles(const std::string& artifact,
                                   const std::vector<double>& qs) {
  return Send(EncodeQuantileRequest(artifact, qs));
}

Status PrivHPClient::SendSample(const std::string& artifact, uint64_t m,
                                uint64_t seed) {
  return Send(EncodeSampleRequest(artifact, m, seed));
}

Status PrivHPClient::CollectPing() {
  std::string frame;
  WireReader payload;
  return RecvResponse(&frame, &payload);
}

Result<double> PrivHPClient::CollectRangeMass() {
  std::string frame;
  WireReader payload;
  PRIVHP_RETURN_NOT_OK(RecvResponse(&frame, &payload));
  return payload.Double();
}

Result<std::vector<double>> PrivHPClient::CollectQuantiles(size_t expected) {
  std::string frame;
  WireReader payload;
  PRIVHP_RETURN_NOT_OK(RecvResponse(&frame, &payload));
  // 8 bytes per double.
  PRIVHP_ASSIGN_OR_RETURN(uint32_t count, payload.BoundedCount(8));
  // Callers index the result by the position of the quantile they asked
  // for, so a count mismatch must fail here, not corrupt them there.
  if (count != expected) {
    return Status::IOError("server returned " + std::to_string(count) +
                           " quantile values, requested " +
                           std::to_string(expected));
  }
  std::vector<double> values;
  values.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    PRIVHP_ASSIGN_OR_RETURN(double v, payload.Double());
    values.push_back(v);
  }
  return values;
}

Result<std::vector<std::string>> PrivHPClient::List() {
  std::string frame;
  WireReader payload;
  PRIVHP_RETURN_NOT_OK(Call(EncodeListRequest(), &frame, &payload));
  // Each name carries at least its 4-byte length prefix.
  PRIVHP_ASSIGN_OR_RETURN(uint32_t count, payload.BoundedCount(4));
  std::vector<std::string> names;
  names.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    PRIVHP_ASSIGN_OR_RETURN(std::string name, payload.String());
    names.push_back(std::move(name));
  }
  return names;
}

Result<obs::MetricsSnapshot> PrivHPClient::Stats() {
  std::string frame;
  WireReader payload;
  PRIVHP_RETURN_NOT_OK(Call(EncodeStatsRequest(), &frame, &payload));
  PRIVHP_ASSIGN_OR_RETURN(obs::MetricsSnapshot snapshot,
                          DecodeStatsSnapshot(&payload));
  PRIVHP_RETURN_NOT_OK(payload.ExpectEnd());
  return snapshot;
}

Status PrivHPClient::Sample(const std::string& artifact, uint64_t m,
                            uint64_t seed, PointSink* sink) {
  if (sink == nullptr) {
    return Status::InvalidArgument("sink must not be null");
  }
  PRIVHP_RETURN_NOT_OK(SendSample(artifact, m, seed));
  return CollectSample(m, sink);
}

Status PrivHPClient::CollectSample(uint64_t m, PointSink* sink) {
  if (sink == nullptr) {
    return Status::InvalidArgument("sink must not be null");
  }
  std::string frame;
  WireReader payload;
  PRIVHP_RETURN_NOT_OK(RecvResponse(&frame, &payload));
  // Once the server answers OK it streams its point frames no matter
  // what goes wrong on our side, so every failure from here on must
  // funnel through the resync below — including header-parse failures.
  const Result<uint32_t> dim = payload.U32();
  const Result<uint64_t> promised = payload.U64();
  Status verdict = !dim.ok() ? dim.status() : promised.status();
  if (verdict.ok() && *promised != m) {
    verdict = Status::IOError("server promised " + std::to_string(*promised) +
                              " points, requested " + std::to_string(m));
  } else if (verdict.ok() &&
             (*dim == 0 ||
              *dim > static_cast<uint32_t>(
                         std::numeric_limits<int>::max()))) {
    // dim must survive the cast to int below as a positive value, or the
    // per-batch dimension check in DecodePointBatch is silently disabled.
    verdict = Status::IOError("server sent invalid sample dimension " +
                              std::to_string(*dim));
  }
  SocketPointSource source(
      [this](std::string* frame) { return Receive(frame); },
      verdict.ok() ? static_cast<int>(*dim) : 0);
  if (verdict.ok()) {
    verdict = Drain(&source, sink);
    if (verdict.ok() && source.num_received() != m) {
      verdict = Status::IOError("sample stream delivered " +
                                std::to_string(source.num_received()) +
                                " points, expected " + std::to_string(m));
    }
  }
  if (!verdict.ok()) {
    // The server streams its point frames regardless of what went wrong
    // on our side, so regain frame sync before the next Call; if resync
    // fails the connection is beyond saving — close it so later calls
    // fail loudly instead of parsing leftover point frames as responses.
    if (!source.SkipToEnd().ok()) sock_.Close();
  }
  return verdict;
}

Result<std::vector<Point>> PrivHPClient::Sample(const std::string& artifact,
                                                uint64_t m, uint64_t seed) {
  CollectingSink sink;
  PRIVHP_RETURN_NOT_OK(Sample(artifact, m, seed, &sink));
  return sink.TakePoints();
}

Result<double> PrivHPClient::RangeMass(const std::string& artifact,
                                       CellId cell) {
  PRIVHP_RETURN_NOT_OK(SendRangeMass(artifact, cell));
  return CollectRangeMass();
}

Result<std::vector<double>> PrivHPClient::Quantiles(
    const std::string& artifact, const std::vector<double>& qs) {
  PRIVHP_RETURN_NOT_OK(SendQuantiles(artifact, qs));
  return CollectQuantiles(qs.size());
}

Result<std::vector<HeavyCell>> PrivHPClient::Heavy(
    const std::string& artifact, double threshold) {
  std::string frame;
  WireReader payload;
  PRIVHP_RETURN_NOT_OK(
      Call(EncodeHeavyRequest(artifact, threshold), &frame, &payload));
  // Each cell is u32 + u64 + double = 20 bytes.
  PRIVHP_ASSIGN_OR_RETURN(uint32_t count, payload.BoundedCount(20));
  std::vector<HeavyCell> cells;
  cells.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    HeavyCell cell;
    PRIVHP_ASSIGN_OR_RETURN(uint32_t level, payload.U32());
    cell.cell.level = static_cast<int>(level);
    PRIVHP_ASSIGN_OR_RETURN(cell.cell.index, payload.U64());
    PRIVHP_ASSIGN_OR_RETURN(cell.fraction, payload.Double());
    cells.push_back(cell);
  }
  return cells;
}

Result<std::string> PrivHPClient::Export(const std::string& artifact) {
  std::string frame;
  WireReader payload;
  PRIVHP_RETURN_NOT_OK(Call(EncodeExportRequest(artifact), &frame, &payload));
  PRIVHP_ASSIGN_OR_RETURN(const uint64_t total, payload.U64());

  // The blob streams across chunk frames after the OK header. Unlike
  // SAMPLE there is no resync possible mid-stream (chunks carry no
  // self-describing count), so any failure closes the connection to
  // keep later calls from parsing leftover chunks as responses.
  std::string blob;
  blob.reserve(static_cast<size_t>(std::min<uint64_t>(total, 64u << 20)));
  for (;;) {
    Result<bool> more = Receive(&frame);
    if (!more.ok() || !*more) {
      sock_.Close();
      return more.ok() ? Status::IOError(
                             "server closed the connection mid-export")
                       : more.status();
    }
    if (frame.empty()) {
      sock_.Close();
      return Status::IOError("empty frame inside export stream");
    }
    const uint8_t tag = static_cast<uint8_t>(frame[0]);
    if (tag == kExportChunkTag) {
      if (blob.size() + (frame.size() - 1) > total) {
        sock_.Close();
        return Status::IOError("export stream overran the promised " +
                               std::to_string(total) + " bytes");
      }
      blob.append(frame, 1, frame.size() - 1);
      continue;
    }
    if (tag == kExportEndTag) {
      WireReader end(frame.data() + 1, frame.size() - 1);
      const Result<uint64_t> echoed = end.U64();
      if (!echoed.ok() || *echoed != total || blob.size() != total) {
        sock_.Close();
        return Status::IOError(
            "export stream ended inconsistently: promised " +
            std::to_string(total) + " bytes, received " +
            std::to_string(blob.size()));
      }
      return blob;
    }
    sock_.Close();
    return Status::IOError("unexpected frame tag 0x" +
                           std::to_string(tag) + " inside export stream");
  }
}

Result<PrivHPClient::IngestReport> PrivHPClient::Ingest(
    const std::string& artifact, const IngestSpec& spec,
    PointSource* source) {
  if (source == nullptr) {
    return Status::InvalidArgument("source must not be null");
  }
  ServiceRequest req;
  req.op = ServiceOp::kIngest;
  req.artifact = artifact;
  req.dim = spec.dim;
  req.epsilon = spec.epsilon;
  req.k = spec.k;
  req.n = spec.n;
  req.seed = spec.seed;
  req.threads = spec.threads;

  // Phase 1: the server validates parameters before we stream anything.
  std::string frame;
  WireReader payload;
  PRIVHP_RETURN_NOT_OK(Call(EncodeIngestRequest(req), &frame, &payload));

  // Phase 2: stream the points, then the end frame. A failure here
  // leaves the server owed points we cannot deliver, and a clean end
  // frame would make it publish a silently truncated artifact — so the
  // only sound recovery is closing the connection, which aborts the
  // server-side build and makes later calls on this client fail loudly
  // instead of desyncing.
  SocketPointSink sink(
      [this](std::string frame) { return Send(std::move(frame)); },
      spec.batch);
  Status streamed = Drain(source, &sink);
  if (streamed.ok()) streamed = sink.FinishStream();
  if (!streamed.ok()) {
    sock_.Close();
    return streamed;
  }

  // Phase 3: the build + publish verdict.
  Result<bool> more = Receive(&frame);
  if (!more.ok() || !*more) {
    sock_.Close();
    return more.ok() ? Status::IOError("server closed the connection")
                     : more.status();
  }
  PRIVHP_RETURN_NOT_OK(ParseResponse(frame, &payload));
  IngestReport report;
  report.points_sent = sink.num_processed();
  PRIVHP_ASSIGN_OR_RETURN(report.nodes, payload.U64());
  PRIVHP_ASSIGN_OR_RETURN(report.total_mass, payload.Double());
  return report;
}

}  // namespace privhp
