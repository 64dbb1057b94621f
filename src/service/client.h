// Client for the PrivHP service protocol — used by `privhp query` /
// `privhp ingest`, the serve bench, and the service tests.
//
// A client wraps one connection. The plain methods issue one request and
// wait for its response; the Send*/Collect* pairs pipeline — many
// requests go out before the first response is read, and responses come
// back strictly in request order, so calls must pair FIFO (Send A,
// Send B, Collect A, Collect B). Keep the number of uncollected sends
// at or below the server's max_pipeline_requests: past it the server
// stops reading and a client that never collects deadlocks itself
// against TCP backpressure. Not thread-safe; open one client per thread
// (connections are cheap and the server multiplexes them onto its
// worker pool).
//
// Every frame on the connection goes out through one FrameWriter and
// comes in through one FrameReader — requests, responses, SAMPLE point
// frames, EXPORT chunks and INGEST streams alike. The reader over-reads
// (one recv can carry several pipelined responses), so nothing may read
// the socket around it.

#ifndef PRIVHP_SERVICE_CLIENT_H_
#define PRIVHP_SERVICE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/queries.h"
#include "domain/domain.h"
#include "io/frame_socket.h"
#include "io/point_sink.h"
#include "obs/metrics_registry.h"
#include "service/protocol.h"

namespace privhp {

/// \brief Synchronous client over one service connection.
class PrivHPClient {
 public:
  /// \brief Connects over TCP. When \p auth_token is non-empty the AUTH
  /// handshake runs before returning (servers started with a token
  /// demand it as the connection's first frame).
  static Result<PrivHPClient> ConnectTcp(const std::string& host,
                                         uint16_t port,
                                         const std::string& auth_token = "");
  static Result<PrivHPClient> ConnectUnix(const std::string& path);

  /// \brief Presents \p token to the server (the AUTH op). Required as
  /// the first exchange on TCP when the server has a token configured;
  /// harmless anywhere else (a wrong token is rejected on any
  /// transport).
  Status Auth(const std::string& token);

  Status Ping();

  /// \brief Published artifact names.
  Result<std::vector<std::string>> List();

  /// \brief Streams \p m synthetic points from \p artifact into \p sink
  /// (bounded memory: batches are forwarded as they arrive). seed != 0
  /// makes the response reproducible; seed == 0 asks for fresh points.
  Status Sample(const std::string& artifact, uint64_t m, uint64_t seed,
                PointSink* sink);

  /// \brief Convenience overload materializing the sample.
  Result<std::vector<Point>> Sample(const std::string& artifact, uint64_t m,
                                    uint64_t seed);

  /// \brief Mass fraction of cell (level, index).
  Result<double> RangeMass(const std::string& artifact, CellId cell);

  /// \brief Quantiles of a 1-D artifact.
  Result<std::vector<double>> Quantiles(const std::string& artifact,
                                        const std::vector<double>& qs);

  /// \brief Hierarchical heavy hitters at \p threshold.
  Result<std::vector<HeavyCell>> Heavy(const std::string& artifact,
                                       double threshold);

  /// \brief The serialized v2 tree — byte-identical to Save() on the
  /// server, so a served artifact can be compared bit-for-bit against a
  /// file-built one (or re-persisted locally).
  Result<std::string> Export(const std::string& artifact);

  /// \brief The server's metrics snapshot (the STATS op): per-endpoint
  /// latency/byte histograms, queue and worker gauges, registry and
  /// buffer-pool state. Drives `privhp stats` and `privhp top`.
  Result<obs::MetricsSnapshot> Stats();

  /// \brief Ingest parameters (mirrors `privhp build` flags).
  struct IngestSpec {
    uint32_t dim = 1;
    double epsilon = 1.0;
    uint64_t k = 32;
    uint64_t n = 0;  ///< Expected stream length (required, > 0).
    uint64_t seed = 42;
    uint32_t threads = 1;
    size_t batch = 1024;  ///< Points per frame on the wire.
  };
  struct IngestReport {
    uint64_t points_sent = 0;
    uint64_t nodes = 0;
    double total_mass = 0.0;
  };

  /// \brief Streams \p source into the server's builder and publishes the
  /// result under \p artifact (the INGEST...FINISH session).
  Result<IngestReport> Ingest(const std::string& artifact,
                              const IngestSpec& spec, PointSource* source);

  // --- Pipelined mode ----------------------------------------------
  // Send* writes a request frame without waiting; Collect* reads the
  // next response. Pair them FIFO — the server answers in request
  // order. A Collect that fails with a transport error leaves the
  // connection unusable (close and reconnect); a server-reported error
  // (unknown artifact, ...) is per-request and the pipeline continues.

  Status SendPing();
  Status SendRangeMass(const std::string& artifact, CellId cell);
  Status SendQuantiles(const std::string& artifact,
                       const std::vector<double>& qs);
  Status SendSample(const std::string& artifact, uint64_t m, uint64_t seed);

  Status CollectPing();
  Result<double> CollectRangeMass();
  /// \brief \p expected must be the size of the qs the paired Send sent.
  Result<std::vector<double>> CollectQuantiles(size_t expected);
  /// \brief \p m must match the paired SendSample's m.
  Status CollectSample(uint64_t m, PointSink* sink);

 private:
  explicit PrivHPClient(Socket sock) : sock_(std::move(sock)) {}

  /// \brief Writes one frame; returns once the (blocking) socket took
  /// all of it.
  Status Send(std::string frame);
  /// \brief Reads the next frame into \p frame; false on clean EOF.
  Result<bool> Receive(std::string* frame);

  /// \brief Sends \p request, receives one response frame into \p frame,
  /// and positions \p payload after the status byte.
  Status Call(std::string request, std::string* frame, WireReader* payload);
  /// \brief Receives one response frame and positions \p payload after
  /// the status byte (the collect half of Call).
  Status RecvResponse(std::string* frame, WireReader* payload);

  Socket sock_;
  FrameReader reader_;
  FrameWriter writer_;
};

}  // namespace privhp

#endif  // PRIVHP_SERVICE_CLIENT_H_
