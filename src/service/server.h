// PrivHPServer — the long-running ingest/serve front end.
//
// Serving topology: one reactor thread owning an epoll event loop (all
// listener and connection fds, readiness-driven, non-blocking framed
// I/O) plus a CPU pool of worker threads that execute parsed requests.
// The reactor parses request frames ahead of execution, so one
// connection can pipeline many requests; requests on a connection run
// one at a time in arrival order (responses come back in request
// order), while different connections execute in parallel across the
// pool. Workers append response frames to the connection's output queue
// and the reactor writes them out as the peer drains — except a
// non-streaming reply that is the connection's only output, with no
// pipelined request behind it and nothing for the reactor to apply (a
// drop, a released INGEST stream): the worker that finished it writes it
// itself, through the same queue and under the connection's mutex, and
// the reply skips the reactor hand-off. What the socket does not take at
// once stays queued for the reactor.
//
// Backpressure: each connection's queued-but-unsent response bytes are
// bounded. A streaming response (SAMPLE / EXPORT) that reaches the
// high-water mark parks its generation state on the connection and
// returns the worker to the pool; the reactor resumes it when the peer
// drains below the low-water mark. A peer that stops reading makes no
// write progress, so the stall eventually trips send_timeout_seconds /
// idle_timeout_seconds and the connection is dropped (classified as a
// backpressure drop when output was pending, an idle drop otherwise).
//
// Released artifacts come from an ArtifactRegistry; reads (SAMPLE /
// RANGE / QUANTILE / HEAVY / EXPORT) are lock-free post-processing of
// the artifact the request's shared_ptr pins, and INGEST streams the
// connection's point frames (forwarded by the reactor through a bounded
// per-connection channel) straight into PrivHPBuilder::BuildParallel,
// publishing the finished generator atomically — readers never observe
// a half-built artifact.
//
// Randomness: workers never share a RandomEngine. Each worker owns one
// engine (forked from the server seed); a seeded SAMPLE gets a fresh
// engine so the response is reproducible no matter which worker serves
// it, and a seedless SAMPLE derives a per-request engine from the
// worker's own (advancing it), so concurrent fresh samples never
// correlate. Sampling state is the CompiledSampler alias table each
// published PrivHPGenerator compiles once, on its first SAMPLE (the
// first of several concurrent ones compiles, the rest wait for it): it
// is immutable afterwards, so every SAMPLE request pinning the artifact
// shares the one compiled table race-free.

#ifndef PRIVHP_SERVICE_SERVER_H_
#define PRIVHP_SERVICE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/sync.h"
#include "common/status.h"
#include "io/frame_socket.h"
#include "obs/metrics_registry.h"
#include "service/artifact_registry.h"
#include "service/event_loop.h"
#include "service/protocol.h"
#include "service/service_metrics.h"

namespace privhp {

/// \brief Listener and pool configuration.
struct ServerOptions {
  /// Unix-domain socket path; empty disables the Unix listener.
  std::string unix_path;

  /// TCP port; -1 disables the TCP listener, 0 binds an ephemeral port
  /// (read it back via PrivHPServer::tcp_port()).
  int tcp_port = -1;

  /// TCP bind address.
  std::string tcp_host = "127.0.0.1";

  /// Worker threads (requests executing concurrently across connections).
  int num_workers = 4;

  /// Seed for the per-worker engine pool (seedless SAMPLE requests).
  uint64_t seed = 1;

  /// Largest m a single SAMPLE request may ask for (0 = unlimited). A
  /// 13-byte request should not be able to occupy the server for hours.
  uint64_t max_sample_points = uint64_t{1} << 24;

  /// Write-stall bound (seconds): a connection with queued response
  /// bytes and no write progress for this long is dropped as a
  /// backpressure casualty (0 = only idle_timeout_seconds applies).
  int send_timeout_seconds = 30;

  /// Idle timeout (seconds): a connection with no inbound frames, no
  /// executing request and no pending output for this long is dropped
  /// (0 = no timeout). It also bounds a stalled peer mid-INGEST (the
  /// stream channel applies it between frames) and is the fallback
  /// drop deadline for write-stalled peers.
  int idle_timeout_seconds = 300;

  /// Preshared token for TCP connections: when non-empty, a TCP
  /// connection's first frame must be an AUTH request carrying exactly
  /// this token; anything else is answered with an error and the
  /// connection is dropped. Unix-domain connections are exempt
  /// (filesystem permissions already gate them), but a wrong token is
  /// rejected on any transport.
  std::string auth_token;

  /// Per-connection high-water mark on queued-but-unsent response bytes.
  /// Streaming producers park at the mark and resume once the queue
  /// drains below half of it; the queue never exceeds the mark by more
  /// than one frame.
  size_t max_output_queue_bytes = 4u << 20;

  /// Per-connection cap on parsed-but-unexecuted pipelined requests;
  /// past it the reactor stops reading from the peer, which shows up to
  /// the client as ordinary TCP backpressure.
  int max_pipeline_requests = 64;

  /// Metrics registry the server records into (per-endpoint latency and
  /// byte histograms, queue/worker gauges, connection lifecycle
  /// counters — served back over the STATS op). Not owned; must outlive
  /// the server. When null the server creates and owns a private
  /// registry, so instrumentation is always on — recording is a couple
  /// of relaxed atomic adds per request, cheap enough to never gate.
  obs::MetricsRegistry* metrics = nullptr;
};

/// \brief Running server over a registry. Start() spawns the threads;
/// Stop() (or destruction) joins them.
class PrivHPServer {
 public:
  /// \brief Starts the reactor and workers. \p registry is not owned and
  /// must outlive the server.
  static Result<std::unique_ptr<PrivHPServer>> Start(
      ArtifactRegistry* registry, const ServerOptions& options);

  ~PrivHPServer();

  PrivHPServer(const PrivHPServer&) = delete;
  PrivHPServer& operator=(const PrivHPServer&) = delete;

  /// \brief Signals shutdown and joins all threads. Idempotent.
  void Stop();

  /// \brief Bound TCP port (0 when the TCP listener is disabled).
  uint16_t tcp_port() const { return tcp_port_; }

  const ServerOptions& options() const { return options_; }

  /// \brief Everything the server knows about itself, merged into one
  /// snapshot: the metrics registry's counters/gauges/histograms (the
  /// server totals among them, as "server.*") and snapshot-time registry
  /// and per-artifact gauges ("registry.*", "artifact.<name>.*",
  /// aggregated buffer-pool counters under "pool.*"). This is the
  /// payload the STATS op encodes.
  obs::MetricsSnapshot StatsSnapshot() const;

  /// \brief The registry this server records into (the configured one,
  /// or the server-owned fallback).
  obs::MetricsRegistry* metrics_registry() const { return metrics_registry_; }

 private:
  struct Connection;
  struct ResponseStream;
  struct SampleStream;
  struct ExportStream;

  /// Why a connection was closed — drives the
  /// server.connections_dropped.* counters (kNone: ordinary close/EOF,
  /// not counted as a drop).
  enum class DropReason { kNone, kIdle, kBackpressure, kAuth };

  /// Per-request bookkeeping threaded through dispatch: which endpoint's
  /// metrics to charge, the request frame's payload bytes (never an
  /// INGEST's point stream), and the response payload bytes (every
  /// frame enqueued on behalf of the request accumulates here, so
  /// SAMPLE's many point frames and EXPORT's chunk frames all count).
  struct RequestScope {
    EndpointMetrics* ep = nullptr;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    std::chrono::steady_clock::time_point started;
  };

  /// What a request leaves for the worker's completion site
  /// (CompleteRequest) to apply. Handlers fill it in and return; they
  /// never queue an error frame or touch the connection's hand-off
  /// flags themselves.
  struct RequestOutcome {
    /// The reply still to queue: an OK frame, or the error the
    /// completion site encodes. An empty frame means the handler already
    /// queued its response (a stream header, an INGEST ack).
    Result<std::string> reply = std::string();
    /// Set when the connection closes after the flush; the value
    /// classifies the drop.
    std::optional<DropReason> drop;
    /// The INGEST point stream the peer was expected to send will not be
    /// consumed: the reactor stops routing its frames to the channel.
    bool release_stream = false;
    /// A SAMPLE/EXPORT response still to pump.
    std::unique_ptr<ResponseStream> stream;

    static RequestOutcome Reply(Result<std::string> reply);
    static RequestOutcome Drop(DropReason reason);
  };

  /// A request frame the reactor parsed and queued for execution. A
  /// non-OK parse_error marks a poison entry: the worker answers with
  /// the error and the connection is closed after the flush.
  struct PendingRequest {
    ServiceRequest req;
    uint64_t bytes_in = 0;
    Status parse_error = Status::OK();
  };

  /// Unit of work for the CPU pool: execute a fresh request, or resume
  /// the connection's parked response stream.
  struct Task {
    std::shared_ptr<Connection> conn;
    bool resume = false;
    PendingRequest request;
    std::chrono::steady_clock::time_point enqueued;
  };

  PrivHPServer(ArtifactRegistry* registry, ServerOptions options);

  Status StartListeners();

  // ---- reactor side (single thread; owns fds, parsing, routing) ----
  void ReactorLoop();
  void AcceptPending(size_t listener_index);
  void PauseListener(size_t listener_index, const Status& error);
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  void RouteFrame(const std::shared_ptr<Connection>& conn,
                  std::string frame);
  void HandleAuthFrame(const std::shared_ptr<Connection>& conn,
                       const std::string& frame);
  void MaybeStartNext(const std::shared_ptr<Connection>& conn);
  /// Derives the routing mode from auth state and expected ingest
  /// streams.
  void RecomputeMode(const std::shared_ptr<Connection>& conn);
  /// Drops one expected ingest stream if a worker released it (an
  /// INGEST rejected before its ack, or one that ended without its
  /// stream), then recomputes the routing mode.
  void ApplyStreamRelease(const std::shared_ptr<Connection>& conn);
  /// Whether the reactor should keep EPOLLIN armed for this connection
  /// (auth/pipeline/ingest-channel caps pause reads — TCP backpressure).
  bool WantRead(const std::shared_ptr<Connection>& conn);
  /// Writes as much queued output as the socket takes, resumes parked
  /// streams below the low-water mark, closes flush-pending connections,
  /// and refreshes epoll interest.
  void PumpConnection(const std::shared_ptr<Connection>& conn);
  void UpdateInterest(const std::shared_ptr<Connection>& conn);
  void DrainReadyList() EXCLUDES(ready_mu_);
  void SweepDeadlines(std::chrono::steady_clock::time_point now);
  void DropConnection(const std::shared_ptr<Connection>& conn,
                      DropReason reason);

  // ---- worker side (CPU pool; writes only through CompleteRequest) ----
  void WorkerLoop(int worker_index) EXCLUDES(task_mu_);
  void SubmitTask(Task task) EXCLUDES(task_mu_);
  /// Runs the task's request (or resumes its parked stream), then keeps
  /// draining the connection's pending pipeline inline while requests
  /// complete cleanly — up to a fairness budget, after which the slot
  /// goes back through the reactor and the task queue.
  void ExecuteTask(Task task, RandomEngine* engine);
  /// The bool these three return means "the execution slot is still
  /// held by this worker and the connection's next pipelined request
  /// may run inline". false = the slot was handed to the reactor
  /// (request_done set) or stays parked with a stream.
  bool ExecuteRequest(const std::shared_ptr<Connection>& conn,
                      PendingRequest pr, RandomEngine* engine);
  bool RunStream(std::unique_ptr<ResponseStream> stream);
  /// The one site that applies a finished request: encodes the reply
  /// (ReplyFrame), records the request's metrics, then — under one hold
  /// of conn->mu — queues the reply, sets the release/drop hand-off
  /// flags, and writes the reply to the socket itself when it is the
  /// connection's only output and nothing else waits (see the file
  /// comment); the reactor is woken only when it has something to do.
  /// Keeps the slot with the worker on a clean completion (returns true)
  /// or marks it done for the reactor when there is a drop or a stream
  /// release to apply (returns false). Recording happens before either
  /// hand-off, so the next pipelined request on the connection observes
  /// this one's metrics.
  bool CompleteRequest(const std::shared_ptr<Connection>& conn,
                       RequestScope* scope, RequestOutcome outcome);
  /// The reply's wire frame: the OK frame itself, or the encoded error —
  /// the only place an error frame is made, and the only place
  /// server.errors and op.<name>.errors advance.
  std::string ReplyFrame(Result<std::string> reply, EndpointMetrics* ep);

  RequestOutcome DispatchRequest(const std::shared_ptr<Connection>& conn,
                                 const ServiceRequest& req,
                                 RandomEngine* engine, RequestScope* scope);
  RequestOutcome HandleSampleRequest(const std::shared_ptr<Connection>& conn,
                                     const ServiceRequest& req,
                                     RandomEngine* engine,
                                     RequestScope* scope);
  RequestOutcome HandleExportRequest(const std::shared_ptr<Connection>& conn,
                                     const ServiceRequest& req,
                                     RequestScope* scope);
  RequestOutcome HandleIngestRequest(const std::shared_ptr<Connection>& conn,
                                     const ServiceRequest& req,
                                     RequestScope* scope);

  /// Appends one response frame to the connection's output queue and
  /// wakes the reactor; fails (IOError) once the connection is dropped.
  Status EnqueueFrame(const std::shared_ptr<Connection>& conn,
                      std::string frame, RequestScope* scope);
  /// Puts \p conn on the reactor's ready list and wakes the loop.
  void NotifyConn(const std::shared_ptr<Connection>& conn) EXCLUDES(ready_mu_);

  ArtifactRegistry* registry_;
  ServerOptions options_;
  uint16_t tcp_port_ = 0;

  // Metrics plumbing: resolved once here, recorded into lock-free from
  // the workers. owned_metrics_ backs metrics_registry_ only when the
  // options did not supply a registry.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_registry_ = nullptr;
  std::unique_ptr<ServiceMetrics> metrics_;

  std::atomic<bool> stopping_{false};

  EventLoop loop_;
  std::vector<Socket> listeners_;
  struct ListenerState {
    bool is_tcp = false;
    bool paused = false;  ///< unregistered after accept failures
    int consecutive_failures = 0;
    std::chrono::steady_clock::time_point rearm_at{};
  };
  std::vector<ListenerState> listener_state_;

  std::thread reactor_;
  std::vector<std::thread> workers_;

  // Reactor-owned connection table (tag -> connection).
  uint64_t next_conn_tag_ = 0;
  std::unordered_map<uint64_t, std::shared_ptr<Connection>> conns_;

  // CPU-pool task queue.
  Mutex task_mu_;
  CondVar task_cv_;
  std::deque<Task> tasks_ GUARDED_BY(task_mu_);

  // Connections with worker-produced state the reactor must look at
  // (new response frames, request completion, parked streams).
  Mutex ready_mu_;
  std::vector<std::shared_ptr<Connection>> ready_ GUARDED_BY(ready_mu_);
};

}  // namespace privhp

#endif  // PRIVHP_SERVICE_SERVER_H_
