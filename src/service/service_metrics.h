// Per-endpoint instrumentation handles for the service layer.
//
// Resolved ONCE against a MetricsRegistry when the server starts; the
// request loop then records through raw pointers — no name lookups, no
// locks on the hot path. One EndpointMetrics per wire op gives every
// endpoint its own latency / bytes-in / bytes-out histograms and
// request / error counters under "op.<name>.*", plus server-level
// queue and worker instrumentation under "server.*" and the SAMPLE
// point counter "sample.points". Nothing here counts an INGEST's point
// stream — its points, frames or bytes are the un-noised stream length
// (sensitivity 1), so op.ingest.bytes_in records only the request frame
// (tools/privhp_lint.py PHL005 keeps it that way).

#ifndef PRIVHP_SERVICE_SERVICE_METRICS_H_
#define PRIVHP_SERVICE_SERVICE_METRICS_H_

#include <array>

#include "obs/metrics_registry.h"
#include "service/protocol.h"

namespace privhp {

/// \brief The instrumentation one wire op records into.
struct EndpointMetrics {
  obs::Counter* requests = nullptr;
  obs::Counter* errors = nullptr;
  obs::Histogram* latency_ns = nullptr;
  obs::Histogram* bytes_in = nullptr;
  obs::Histogram* bytes_out = nullptr;
};

/// \brief Stable, display-ordered list of wire ops ("ping", "list", ...).
/// kStatsNumOps is also the bound for OpIndex below.
inline constexpr int kStatsNumOps = 10;
const char* ServiceOpName(ServiceOp op);
/// \brief Dense [0, kStatsNumOps) index for a wire op.
int ServiceOpIndex(ServiceOp op);
/// \brief The op at dense \p index (inverse of ServiceOpIndex).
ServiceOp ServiceOpAt(int index);

/// \brief All service-layer metric handles, resolved once at Start().
class ServiceMetrics {
 public:
  explicit ServiceMetrics(obs::MetricsRegistry* registry);

  EndpointMetrics& ForOp(ServiceOp op) { return ops_[ServiceOpIndex(op)]; }

  // Server totals, on paths the per-op metrics do not all see
  // (unparseable frames, the reactor's AUTH handshakes, listeners).
  obs::Counter* connections;               ///< peers accepted
  obs::Counter* requests;                  ///< request frames routed
  obs::Counter* errors;                    ///< error responses queued
  /// Replies the worker that finished the request wrote to the socket
  /// in full, skipping the reactor hand-off.
  obs::Counter* replies_written_by_worker;
  obs::Counter* ingests_published;         ///< INGEST artifacts published
  /// Times a listener entered a sustained accept-failure streak (>= 16
  /// consecutive failures); the reactor keeps retrying with capped
  /// backoff, but a non-zero value means some endpoint has been
  /// refusing connections and deserves a look.
  obs::Counter* listener_failure_streaks;

  // Server-level instrumentation.
  obs::Histogram* queue_wait_ns;  ///< request parse-to-worker-dequeue wait
  obs::Gauge* queue_depth;        ///< requests awaiting a worker
  obs::Gauge* workers_busy;       ///< workers currently serving
  obs::Gauge* workers_total;      ///< configured pool size

  // Connection lifecycle (event-loop reactor).
  obs::Gauge* connections_open;          ///< currently accepted peers
  obs::Counter* dropped_idle;            ///< idle-timeout drops
  obs::Counter* dropped_backpressure;    ///< stalled-reader drops
  obs::Counter* dropped_auth;            ///< failed AUTH handshakes
  obs::Gauge* output_queue_bytes;        ///< response bytes queued, all peers

  // Sampling pipeline (points streamed out of SAMPLE responses).
  obs::Counter* sample_points;

 private:
  std::array<EndpointMetrics, kStatsNumOps> ops_;
};

}  // namespace privhp

#endif  // PRIVHP_SERVICE_SERVICE_METRICS_H_
