#include "service/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <utility>

#include "common/macros.h"
#include "core/builder.h"
#include "domain/hypercube_domain.h"
#include "io/socket_point_stream.h"
#include "service/handlers.h"

namespace privhp {

namespace {

// Listener fds are tagged with their index; connection tags start here.
// The fd space can never reach this many listeners.
constexpr uint64_t kConnTagBase = uint64_t{1} << 16;

// Reactor tick: epoll_wait timeout, which also bounds how stale the
// idle/backpressure deadline sweep can get.
constexpr int kReactorTickMs = 100;

// Fairness bounds: how much one readable connection or one listener may
// consume of a single reactor round before others get a turn.
constexpr int kMaxFramesPerRound = 32;
constexpr int kMaxAcceptsPerRound = 64;

// Points per SAMPLE response frame: bounds server-side memory per
// request whatever m is.
constexpr size_t kSampleBatch = 4096;
// Upper bound accepted for an INGEST request's thread count.
constexpr uint32_t kMaxIngestThreads = 16;
// Bytes per EXPORT chunk frame. The blob streams across as many frames
// as it needs, so artifacts larger than one frame export fine; this
// only trades frame count against per-frame memory.
constexpr size_t kExportChunkBytes = size_t{4} << 20;
static_assert(kExportChunkBytes < kMaxFrameBytes,
              "an EXPORT chunk and its tag byte must fit one frame");

// Bounds on the per-connection ingest frame channel (reactor-to-worker
// hand-off of streamed point frames). When full, the reactor stops
// reading the connection, which the peer sees as TCP backpressure. One
// reactor round's worth of frames keeps the worker fed; a deeper channel
// only parks more of the stream in server memory while the worker is
// behind.
constexpr size_t kIngestChannelMaxBytes = size_t{8} << 20;
constexpr size_t kIngestChannelMaxFrames = kMaxFramesPerRound;

// How many pipelined requests one worker may drain from a single
// connection before handing the execution slot back through the task
// queue. Inline continuation is what makes pipelining pay: the next
// request starts on the worker that finished the previous one instead
// of waiting for the reactor to take the slot back and a worker to wake
// for it. An unbounded drain would let one pipelining peer monopolize a
// worker.
constexpr int kMaxInlineRequestsPerTask = 32;

uint64_t ElapsedNs(std::chrono::steady_clock::time_point from,
                   std::chrono::steady_clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// Connection: the reactor's per-peer state plus the surfaces it shares
// with workers. Field ownership is strict — the reactor-owned block is
// touched by the reactor thread only and never locked; everything shared
// with workers goes through mu / ingest_mu / the atomics. The output
// queue (writer) is shared: the reactor pumps it, and the worker that
// finishes a request may write its reply through it (CompleteRequest),
// both under mu, so their writes never overlap and bytes stay in order.
// ---------------------------------------------------------------------------

struct PrivHPServer::Connection {
  /// What the next inbound frame on this connection means.
  enum class InputMode {
    kAuth,     ///< TCP with a configured token, handshake not done
    kRequest,  ///< frames are ServiceRequests
    kIngest,   ///< frames belong to an expected ingest point stream
  };

  /// A steady_clock time point any thread may stamp or read.
  class AtomicTime {
   public:
    void Store(std::chrono::steady_clock::time_point t) {
      ticks_.store(t.time_since_epoch().count(), std::memory_order_relaxed);
    }
    std::chrono::steady_clock::time_point Load() const {
      return std::chrono::steady_clock::time_point(
          std::chrono::steady_clock::duration(
              ticks_.load(std::memory_order_relaxed)));
    }

   private:
    std::atomic<std::chrono::steady_clock::rep> ticks_{0};
  };

  uint64_t tag = 0;
  /// Set at accept. The reactor closes it only after setting closed
  /// under mu, so a worker that finds closed false under mu may write.
  Socket sock;
  bool needs_auth = false;

  // ---- reactor-owned (single thread, never locked) ----
  FrameReader reader;
  InputMode mode = InputMode::kRequest;
  bool authed = false;
  /// Ingest point streams the peer still owes us (one per INGEST request
  /// parsed and not yet released). While > 0 inbound frames route to the
  /// ingest channel instead of the request parser.
  int streams_expected = 0;
  bool want_read = true;   ///< current EPOLLIN interest
  bool want_write = false; ///< current EPOLLOUT interest
  /// Stop consuming input for good (unparseable frame / failed auth):
  /// the queued response still flushes, then the connection closes.
  bool reading_disabled = false;
  bool close_after_flush = false;
  DropReason flush_drop_reason = DropReason::kNone;
  bool dropped = false;
  uint64_t last_bytes_received = 0;

  // ---- stamped by the reactor and by writing workers ----
  /// Last inbound bytes or write progress (the idle clock).
  AtomicTime last_activity;
  /// Last bytes handed to the kernel (the write-stall clock).
  AtomicTime last_write_progress;

  // ---- shared with workers (guarded by mu) ----
  Mutex mu;
  bool closed GUARDED_BY(mu) = false;  ///< worker-visible mirror of dropped
  /// Parsed requests awaiting execution. The reactor pushes; either the
  /// reactor pops (MaybeStartNext, when no worker holds the slot) or
  /// the worker finishing the previous request pops the next one inline
  /// — that continuation is what lets pipelined requests run
  /// back-to-back without handing the slot through the reactor.
  std::deque<PendingRequest> pending GUARDED_BY(mu);
  /// A worker owns a request or parked stream.
  bool executing GUARDED_BY(mu) = false;
  /// Response frames queued toward the peer, and the socket write state.
  FrameWriter writer GUARDED_BY(mu);
  /// The reactor holds input it is not parsing: reads are paused at
  /// max_pipeline_requests, or the reader holds buffered bytes. Set with
  /// the pipeline check that decides it (WantRead), so a worker that
  /// empties the pipeline later sees it and wakes the reactor even when
  /// it wrote its reply itself.
  bool input_held GUARDED_BY(mu) = false;
  /// Request-completion hand-off, consumed by the reactor in
  /// DrainReadyList: the executing request finished; optionally asks for
  /// a drop.
  bool request_done GUARDED_BY(mu) = false;
  std::optional<DropReason> done_drop GUARDED_BY(mu);
  /// A worker's INGEST will not consume its expected point stream. Set
  /// in the same hold of mu that queues a pre-ack rejection's error
  /// frame (CompleteRequest), and taken by the reactor
  /// (ApplyStreamRelease) before it routes the next frame, so a request
  /// the peer sends after reading the error is never mistaken for
  /// stream data.
  bool release_stream GUARDED_BY(mu) = false;
  /// A SAMPLE/EXPORT response that hit the output high-water mark,
  /// waiting for the peer to drain. The request slot stays occupied
  /// (executing == true) but no worker is held.
  std::unique_ptr<ResponseStream> parked GUARDED_BY(mu);
  bool resume_scheduled GUARDED_BY(mu) = false;

  /// Appends \p frame to the writer; returns the wire bytes queued (the
  /// 4-byte frame header included, matching the writer's pending_bytes
  /// so queued_bytes drains exactly to zero), or 0 once closed.
  size_t QueueLocked(std::string frame) REQUIRES(mu) {
    if (closed) return 0;
    const size_t wire_bytes = frame.size() + 4;
    // Frames were size-checked when the worker encoded them.
    const Status queued = writer.Enqueue(std::move(frame));
    PRIVHP_DCHECK(queued.ok());
    (void)queued;
    // Only this function adds to queued_bytes, always under mu, so the
    // empty-to-pending transition is seen here. Stamp it before the
    // release-add publishes the bytes: a sweep that acquires the bytes
    // also sees the fresh stamp.
    if (queued_bytes.load(std::memory_order_relaxed) == 0) {
      output_pending_since.Store(std::chrono::steady_clock::now());
    }
    queued_bytes.fetch_add(wire_bytes, std::memory_order_release);
    return wire_bytes;
  }

  /// Writes as much of the writer as the socket takes (the reactor's
  /// pump and a worker's write-through alike); true when it drained.
  /// Sets \p flushed to the bytes written, already taken off
  /// queued_bytes, and stamps the progress clocks when there were any.
  Result<bool> FlushLocked(size_t* flushed) REQUIRES(mu) {
    const size_t before = writer.pending_bytes();
    Result<bool> drained = writer.Pump(sock);
    *flushed = before - writer.pending_bytes();
    if (*flushed > 0) {
      const auto now = std::chrono::steady_clock::now();
      last_write_progress.Store(now);
      last_activity.Store(now);
      queued_bytes.fetch_sub(*flushed, std::memory_order_relaxed);
    }
    return drained;
  }

  /// Bytes queued toward the peer (frame headers included) — atomic so
  /// stream producers can check the high-water mark and the sweep can
  /// see pending output without taking mu.
  std::atomic<size_t> queued_bytes{0};
  /// When output last went from empty to pending. The write-stall clock
  /// runs from the later of this and last_write_progress, so a reply
  /// queued long after the previous flush (or after accept, when a slow
  /// request held every worker) starts with a fresh clock.
  AtomicTime output_pending_since;

  /// Membership in the reactor's ready list (dedup for NotifyConn).
  std::atomic<bool> in_ready{false};

  // ---- ingest frame channel (guarded by ingest_mu) ----
  // The reactor pushes raw point-stream frames; the worker executing the
  // INGEST pops them through a SocketPointSource. Bounded by
  // kIngestChannelMax*; when full the reactor pauses reads.
  Mutex ingest_mu;
  CondVar ingest_cv;
  std::deque<std::string> ingest_frames GUARDED_BY(ingest_mu);
  size_t ingest_bytes GUARDED_BY(ingest_mu) = 0;
  bool ingest_closed GUARDED_BY(ingest_mu) = false;
};

// ---------------------------------------------------------------------------
// Response streams: resumable generation state for responses larger than
// the output queue. Pump() produces frames until done, failure, or the
// high-water mark; a parked stream holds whatever it needs (including
// the artifact pin) until the reactor reschedules it.
// ---------------------------------------------------------------------------

struct PrivHPServer::ResponseStream {
  enum class PumpResult { kDone, kParked, kFailed };

  virtual ~ResponseStream() = default;
  virtual PumpResult Pump() = 0;

  PrivHPServer* server = nullptr;
  std::shared_ptr<Connection> conn;
  RequestScope scope;
};

struct PrivHPServer::SampleStream : ResponseStream {
  std::shared_ptr<const ServedArtifact> artifact;
  RandomEngine engine;
  uint64_t remaining = 0;
  uint64_t total = 0;
  std::unique_ptr<SocketPointSink> sink;

  PumpResult Pump() override {
    const size_t high = server->options_.max_output_queue_bytes;
    // Generate one wire batch at a time so a park (or shutdown) can
    // interrupt a large response between frames. The artifact's
    // sampling state (compiled alias table, mmapped table or buffer
    // pool) is set up once — at load time, or by the first SAMPLE of a
    // heap artifact — and shared by every concurrent request through the
    // registry's shared_ptr: nothing is rebuilt per request or per
    // chunk, and the point stream is bit-identical whichever
    // representation serves it.
    while (remaining > 0) {
      if (server->stopping_.load()) return PumpResult::kFailed;
      if (conn->queued_bytes.load(std::memory_order_relaxed) >= high) {
        return PumpResult::kParked;
      }
      const uint64_t chunk = std::min<uint64_t>(kSampleBatch, remaining);
      if (!artifact->GenerateTo(chunk, &engine, sink.get()).ok()) {
        return PumpResult::kFailed;
      }
      remaining -= chunk;
    }
    if (!sink->FinishStream().ok()) return PumpResult::kFailed;
    server->metrics_->sample_points->Add(static_cast<int64_t>(total));
    return PumpResult::kDone;
  }
};

struct PrivHPServer::ExportStream : ResponseStream {
  std::string blob;
  size_t offset = 0;

  PumpResult Pump() override {
    const size_t high = server->options_.max_output_queue_bytes;
    while (offset < blob.size()) {
      if (server->stopping_.load()) return PumpResult::kFailed;
      if (conn->queued_bytes.load(std::memory_order_relaxed) >= high) {
        return PumpResult::kParked;
      }
      const size_t n = std::min(kExportChunkBytes, blob.size() - offset);
      WireWriter w;
      w.PutU8(kExportChunkTag);
      w.PutBytes(blob.data() + offset, n);
      if (!server->EnqueueFrame(conn, w.Take(), &scope).ok()) {
        return PumpResult::kFailed;
      }
      offset += n;
    }
    WireWriter end;
    end.PutU8(kExportEndTag);
    end.PutU64(blob.size());
    if (!server->EnqueueFrame(conn, end.Take(), &scope).ok()) {
      return PumpResult::kFailed;
    }
    return PumpResult::kDone;
  }
};

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

PrivHPServer::PrivHPServer(ArtifactRegistry* registry, ServerOptions options)
    : registry_(registry), options_(std::move(options)) {
  metrics_registry_ = options_.metrics;
  if (metrics_registry_ == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_registry_ = owned_metrics_.get();
  }
  // Resolve every handle now: the request path records through raw
  // pointers and never touches the registry mutex.
  metrics_ = std::make_unique<ServiceMetrics>(metrics_registry_);
  metrics_->workers_total->Set(options_.num_workers);
}

Result<std::unique_ptr<PrivHPServer>> PrivHPServer::Start(
    ArtifactRegistry* registry, const ServerOptions& options) {
  if (registry == nullptr) {
    return Status::InvalidArgument("registry must not be null");
  }
  if (options.unix_path.empty() && options.tcp_port < 0) {
    return Status::InvalidArgument(
        "server needs at least one listener (unix_path or tcp_port)");
  }
  if (options.num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  if (options.max_output_queue_bytes == 0) {
    return Status::InvalidArgument("max_output_queue_bytes must be > 0");
  }
  if (options.max_pipeline_requests < 1) {
    return Status::InvalidArgument("max_pipeline_requests must be >= 1");
  }
  std::unique_ptr<PrivHPServer> server(new PrivHPServer(registry, options));
  PRIVHP_ASSIGN_OR_RETURN(server->loop_, EventLoop::Make());
  PRIVHP_RETURN_NOT_OK(server->StartListeners());
  server->reactor_ = std::thread([srv = server.get()]() {
    srv->ReactorLoop();
  });
  for (int w = 0; w < options.num_workers; ++w) {
    server->workers_.emplace_back(
        [srv = server.get(), w]() { srv->WorkerLoop(w); });
  }
  return server;
}

Status PrivHPServer::StartListeners() {
  if (!options_.unix_path.empty()) {
    PRIVHP_ASSIGN_OR_RETURN(Socket listener, ListenUnix(options_.unix_path));
    listeners_.push_back(std::move(listener));
    ListenerState state;
    state.is_tcp = false;
    listener_state_.push_back(state);
  }
  if (options_.tcp_port >= 0) {
    uint16_t bound = 0;
    PRIVHP_ASSIGN_OR_RETURN(
        Socket listener,
        ListenTcp(options_.tcp_host,
                  static_cast<uint16_t>(options_.tcp_port), &bound));
    tcp_port_ = bound;
    listeners_.push_back(std::move(listener));
    ListenerState state;
    state.is_tcp = true;
    listener_state_.push_back(state);
  }
  for (size_t i = 0; i < listeners_.size(); ++i) {
    PRIVHP_RETURN_NOT_OK(loop_.Add(listeners_[i].fd(), true, false, i));
  }
  return Status::OK();
}

PrivHPServer::~PrivHPServer() { Stop(); }

void PrivHPServer::Stop() {
  if (stopping_.exchange(true)) return;
  loop_.Wake();
  // The reactor drops every connection on its way out, which closes the
  // ingest channels and unblocks any worker waiting on streamed frames.
  if (reactor_.joinable()) reactor_.join();
  // Pairing the flag flip with the queue lock closes the lost-wakeup
  // race: a worker that read stopping_ == false under the lock is
  // guaranteed to be inside wait() by the time we notify.
  { MutexLock lock(task_mu_); }
  task_cv_.NotifyAll();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

// ---------------------------------------------------------------------------
// Reactor side
// ---------------------------------------------------------------------------

void PrivHPServer::ReactorLoop() {
  std::vector<EventLoop::Event> events;
  while (!stopping_.load()) {
    events.clear();
    const Status polled = loop_.Poll(kReactorTickMs, &events);
    if (!polled.ok()) {
      // A broken epoll fd is unrecoverable; stop serving rather than
      // spin. Stop() still joins cleanly.
      std::fprintf(stderr, "privhp server: reactor poll failed: %s\n",
                   polled.message().c_str());
      break;
    }
    for (const EventLoop::Event& ev : events) {
      if (ev.tag < kConnTagBase) {
        if (ev.tag < listeners_.size()) {
          AcceptPending(static_cast<size_t>(ev.tag));
        }
        continue;
      }
      auto it = conns_.find(ev.tag);
      if (it == conns_.end()) continue;  // dropped earlier this round
      std::shared_ptr<Connection> conn = it->second;
      // EPOLLHUP/EPOLLERR surface through the read path: recv() reports
      // the EOF or the socket error with a usable message.
      if (ev.readable || ev.hangup) HandleReadable(conn);
      if (!conn->dropped && ev.writable) PumpConnection(conn);
    }
    DrainReadyList();
    SweepDeadlines(std::chrono::steady_clock::now());
  }
  // Shutdown: close every connection. This marks the worker-visible
  // closed flags and ingest channels, so in-flight builds and streams
  // fail fast instead of waiting out their timeouts.
  std::vector<std::shared_ptr<Connection>> all;
  all.reserve(conns_.size());
  for (const auto& entry : conns_) all.push_back(entry.second);
  for (const std::shared_ptr<Connection>& conn : all) {
    DropConnection(conn, DropReason::kNone);
  }
}

void PrivHPServer::AcceptPending(size_t listener_index) {
  ListenerState& state = listener_state_[listener_index];
  for (int i = 0; i < kMaxAcceptsPerRound; ++i) {
    bool would_block = false;
    Result<Socket> accepted =
        AcceptReady(listeners_[listener_index], &would_block);
    if (!accepted.ok()) {
      PauseListener(listener_index, accepted.status());
      return;
    }
    if (would_block) break;
    state.consecutive_failures = 0;
    metrics_->connections->Inc();
    metrics_->connections_open->Add(1);
    if (state.is_tcp) {
      // Responses are written as soon as the peer can take them; never
      // let Nagle hold a finished response frame hostage.
      int one = 1;
      ::setsockopt(accepted->fd(), IPPROTO_TCP, TCP_NODELAY, &one,
                   sizeof(one));
    }
    auto conn = std::make_shared<Connection>();
    conn->tag = kConnTagBase + next_conn_tag_++;
    conn->sock = std::move(*accepted);
    conn->needs_auth = state.is_tcp && !options_.auth_token.empty();
    RecomputeMode(conn);
    const auto now = std::chrono::steady_clock::now();
    conn->last_activity.Store(now);
    conn->last_write_progress.Store(now);
    if (!loop_.Add(conn->sock.fd(), true, false, conn->tag).ok()) {
      metrics_->connections_open->Add(-1);
      continue;  // the Socket destructor closes the fd
    }
    conn->want_read = true;
    conn->want_write = false;
    conns_[conn->tag] = std::move(conn);
  }
}

void PrivHPServer::PauseListener(size_t listener_index, const Status& error) {
  ListenerState& state = listener_state_[listener_index];
  // Accept failures are retried forever: transient causes (ECONNABORTED
  // under load, EMFILE during fd exhaustion) can outlast any fixed
  // budget, and abandoning the listener would leave a healthy-looking
  // server that never accepts again. The backoff cap keeps even a
  // structurally dead fd (EBADF) from hogging the reactor, and a
  // sustained streak is surfaced via stderr and
  // server.listener_failure_streaks.
  ++state.consecutive_failures;
  if (state.consecutive_failures == 16) {
    metrics_->listener_failure_streaks->Inc();
  }
  if (state.consecutive_failures % 16 == 0) {
    std::fprintf(stderr,
                 "privhp server: listener failing, %d consecutive "
                 "accept failures, last: %s\n",
                 state.consecutive_failures, error.message().c_str());
  }
  (void)loop_.Del(listeners_[listener_index].fd());
  state.paused = true;
  const int backoff_ms = std::min(10 * state.consecutive_failures, 1000);
  state.rearm_at = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(backoff_ms);
}

void PrivHPServer::HandleReadable(const std::shared_ptr<Connection>& conn) {
  bool socket_drained = false;
  for (int i = 0; i < kMaxFramesPerRound; ++i) {
    if (conn->dropped) return;
    // Routing may have paused input mid-round (pipeline cap, full
    // ingest channel, failed auth); stop pulling frames immediately.
    if (!WantRead(conn)) break;
    Result<FrameReader::Event> event = conn->reader.Poll(conn->sock);
    const uint64_t received = conn->reader.bytes_received();
    if (received != conn->last_bytes_received) {
      conn->last_bytes_received = received;
      conn->last_activity.Store(std::chrono::steady_clock::now());
    }
    if (!event.ok() || *event == FrameReader::Event::kEof) {
      // EOF or a socket error: the peer is gone. In-flight work fails
      // fast through the closed flags; this is an ordinary close, not a
      // policy drop.
      DropConnection(conn, DropReason::kNone);
      return;
    }
    if (*event == FrameReader::Event::kNeedMore) {
      socket_drained = true;
      break;
    }
    RouteFrame(conn, std::move(conn->reader.frame()));
  }
  if (conn->dropped) return;
  UpdateInterest(conn);
  // The reader over-reads: stopping for a fairness cap or a paused
  // pipeline can leave complete frames in its buffer with the kernel
  // side drained, so EPOLLIN alone would never deliver them. Reschedule
  // through the ready list (a kNeedMore exit means the buffer holds at
  // most a partial frame — EPOLLIN is the right wake-up for that).
  if (!socket_drained && conn->reader.has_buffered()) NotifyConn(conn);
}

void PrivHPServer::RouteFrame(const std::shared_ptr<Connection>& conn,
                              std::string frame) {
  switch (conn->mode) {
    case Connection::InputMode::kAuth:
      HandleAuthFrame(conn, frame);
      return;
    case Connection::InputMode::kIngest: {
      // A rejected INGEST's expectation may have been released since the
      // mode was last computed; if so, this frame is the peer's next
      // request.
      ApplyStreamRelease(conn);
      if (conn->mode != Connection::InputMode::kIngest) {
        RouteFrame(conn, std::move(frame));
        return;
      }
      // The frame belongs to an expected point stream: hand it to the
      // ingest worker through the bounded channel without decoding.
      const bool is_end =
          !frame.empty() &&
          static_cast<uint8_t>(frame[0]) == kPointStreamEndTag;
      {
        MutexLock lock(conn->ingest_mu);
        if (!conn->ingest_closed) {
          conn->ingest_bytes += frame.size();
          conn->ingest_frames.push_back(std::move(frame));
        }
      }
      conn->ingest_cv.NotifyOne();
      if (is_end) {
        if (conn->streams_expected > 0) --conn->streams_expected;
        RecomputeMode(conn);
      }
      return;
    }
    case Connection::InputMode::kRequest:
      break;
  }
  metrics_->requests->Inc();
  PendingRequest pending;
  pending.bytes_in = frame.size();
  Result<ServiceRequest> parsed = ParseRequest(frame);
  if (!parsed.ok()) {
    // A frame we cannot parse means the peer speaks a different
    // protocol: stop reading, answer this one in pipeline order (behind
    // any responses already owed), then close.
    pending.parse_error = parsed.status();
    conn->reading_disabled = true;
  } else {
    pending.req = std::move(*parsed);
    if (pending.req.op == ServiceOp::kIngest) {
      // The peer will follow up with a point stream once (if) the
      // request is acknowledged; route those frames to the channel. An
      // INGEST therefore acts as a pipeline barrier: a conforming
      // client waits for the verdict before sending more requests.
      ++conn->streams_expected;
      RecomputeMode(conn);
    }
  }
  {
    MutexLock lock(conn->mu);
    conn->pending.push_back(std::move(pending));
  }
  MaybeStartNext(conn);
}

void PrivHPServer::HandleAuthFrame(const std::shared_ptr<Connection>& conn,
                                   const std::string& frame) {
  // The handshake is answered by the reactor itself: no artifact state
  // is involved, and keeping unauthenticated peers away from the worker
  // pool means a flood of bad handshakes cannot starve real requests.
  const auto started = std::chrono::steady_clock::now();
  metrics_->requests->Inc();
  EndpointMetrics& ep = metrics_->ForOp(ServiceOp::kAuth);
  ep.requests->Inc();
  Result<ServiceRequest> parsed = ParseRequest(frame);
  Result<std::string> verdict = Status::FailedPrecondition(
      "authentication required: first frame must be AUTH");
  if (!parsed.ok()) {
    verdict = parsed.status();
  } else if (parsed->op == ServiceOp::kAuth) {
    verdict = HandleAuth(*parsed, options_.auth_token);
  }
  if (verdict.ok()) {
    conn->authed = true;
    RecomputeMode(conn);
  } else {
    conn->reading_disabled = true;
    conn->close_after_flush = true;
    conn->flush_drop_reason = DropReason::kAuth;
  }
  std::string reply = ReplyFrame(std::move(verdict), &ep);
  ep.latency_ns->Record(
      ElapsedNs(started, std::chrono::steady_clock::now()));
  ep.bytes_in->Record(frame.size());
  ep.bytes_out->Record(reply.size());
  (void)EnqueueFrame(conn, std::move(reply), nullptr);
}

void PrivHPServer::MaybeStartNext(const std::shared_ptr<Connection>& conn) {
  // One request executes per connection at a time: responses come back
  // in request order because nothing else can produce them out of turn.
  if (conn->dropped || conn->close_after_flush) return;
  Task task;
  {
    MutexLock lock(conn->mu);
    if (conn->executing || conn->pending.empty()) return;
    task.request = std::move(conn->pending.front());
    conn->pending.pop_front();
    conn->executing = true;
  }
  task.conn = conn;
  task.enqueued = std::chrono::steady_clock::now();
  SubmitTask(std::move(task));
}

void PrivHPServer::ApplyStreamRelease(
    const std::shared_ptr<Connection>& conn) {
  bool release = false;
  {
    MutexLock lock(conn->mu);
    release = conn->release_stream;
    conn->release_stream = false;
  }
  if (release && conn->streams_expected > 0) --conn->streams_expected;
  RecomputeMode(conn);
}

void PrivHPServer::RecomputeMode(const std::shared_ptr<Connection>& conn) {
  if (conn->needs_auth && !conn->authed) {
    conn->mode = Connection::InputMode::kAuth;
  } else if (conn->streams_expected > 0) {
    conn->mode = Connection::InputMode::kIngest;
  } else {
    conn->mode = Connection::InputMode::kRequest;
  }
}

bool PrivHPServer::WantRead(const std::shared_ptr<Connection>& conn) {
  if (conn->reading_disabled || conn->close_after_flush) return false;
  if (conn->mode == Connection::InputMode::kIngest) {
    MutexLock lock(conn->ingest_mu);
    return conn->ingest_bytes < kIngestChannelMaxBytes &&
           conn->ingest_frames.size() < kIngestChannelMaxFrames;
  }
  MutexLock lock(conn->mu);
  const bool room = conn->pending.size() <
                    static_cast<size_t>(options_.max_pipeline_requests);
  // Decided in the same hold as the pipeline check: a worker that drains
  // the pipeline after this sees whether the reactor waits on it.
  conn->input_held = !room || conn->reader.has_buffered();
  return room;
}

void PrivHPServer::PumpConnection(const std::shared_ptr<Connection>& conn) {
  if (conn->dropped) return;
  size_t flushed = 0;
  Result<bool> drained = true;
  {
    MutexLock lock(conn->mu);
    if (!conn->writer.empty()) drained = conn->FlushLocked(&flushed);
  }
  if (flushed > 0) {
    metrics_->output_queue_bytes->Add(-static_cast<int64_t>(flushed));
  }
  if (!drained.ok()) {
    DropConnection(conn, DropReason::kNone);
    return;
  }
  // Resume a parked stream once the peer drained below the low-water
  // mark (half the cap — hysteresis, so a stream does not thrash between
  // parking and resuming on every frame).
  if (conn->queued_bytes.load(std::memory_order_relaxed) <=
      options_.max_output_queue_bytes / 2) {
    bool submit = false;
    {
      MutexLock lock(conn->mu);
      if (conn->parked != nullptr && !conn->resume_scheduled) {
        conn->resume_scheduled = true;
        submit = true;
      }
    }
    if (submit) {
      Task task;
      task.conn = conn;
      task.resume = true;
      task.enqueued = std::chrono::steady_clock::now();
      SubmitTask(std::move(task));
    }
  }
  if (conn->close_after_flush) {
    bool flushed_and_idle;
    {
      MutexLock lock(conn->mu);
      flushed_and_idle = conn->writer.empty() && !conn->executing;
    }
    if (flushed_and_idle) {
      DropConnection(conn, conn->flush_drop_reason);
      return;
    }
  }
  UpdateInterest(conn);
}

void PrivHPServer::UpdateInterest(const std::shared_ptr<Connection>& conn) {
  if (conn->dropped) return;
  const bool want_read = WantRead(conn);
  bool want_write;
  {
    MutexLock lock(conn->mu);
    want_write = !conn->writer.empty();
  }
  if (want_read == conn->want_read && want_write == conn->want_write) {
    return;
  }
  conn->want_read = want_read;
  conn->want_write = want_write;
  if (!loop_.Mod(conn->sock.fd(), want_read, want_write, conn->tag).ok()) {
    DropConnection(conn, DropReason::kNone);
  }
}

void PrivHPServer::DrainReadyList() {
  std::vector<std::shared_ptr<Connection>> ready;
  {
    MutexLock lock(ready_mu_);
    ready.swap(ready_);
  }
  for (const std::shared_ptr<Connection>& conn : ready) {
    // Clear membership before reading the flags: a worker notification
    // racing with this pass just re-queues the connection for the next
    // round instead of being lost.
    conn->in_ready.store(false, std::memory_order_release);
    if (conn->dropped) continue;
    bool done = false;
    std::optional<DropReason> drop;
    {
      MutexLock lock(conn->mu);
      done = conn->request_done;
      if (done) {
        conn->request_done = false;
        drop = std::exchange(conn->done_drop, std::nullopt);
        conn->executing = false;
      }
    }
    ApplyStreamRelease(conn);
    if (done) {
      if (drop.has_value()) {
        conn->close_after_flush = true;
        conn->flush_drop_reason = *drop;
        conn->reading_disabled = true;
      } else {
        MaybeStartNext(conn);
      }
    }
    // A pipeline un-pausing (request slots freed, ingest channel
    // drained) is signalled through this list, not by EPOLLIN: continue
    // parsing any frames the reader buffered past an earlier round's
    // fairness cap.
    if (conn->reader.has_buffered() && WantRead(conn)) {
      HandleReadable(conn);
      if (conn->dropped) continue;
    }
    PumpConnection(conn);
  }
}

void PrivHPServer::SweepDeadlines(std::chrono::steady_clock::time_point now) {
  for (size_t i = 0; i < listener_state_.size(); ++i) {
    ListenerState& state = listener_state_[i];
    if (state.paused && now >= state.rearm_at) {
      if (loop_.Add(listeners_[i].fd(), true, false, i).ok()) {
        state.paused = false;
      } else {
        state.rearm_at = now + std::chrono::milliseconds(std::min(
                                   10 * state.consecutive_failures, 1000));
      }
    }
  }
  if (conns_.empty()) return;
  const auto send_limit = std::chrono::seconds(options_.send_timeout_seconds);
  const auto idle_limit = std::chrono::seconds(options_.idle_timeout_seconds);
  std::vector<std::pair<std::shared_ptr<Connection>, DropReason>> expired;
  for (const auto& entry : conns_) {
    const std::shared_ptr<Connection>& conn = entry.second;
    if (conn->queued_bytes.load(std::memory_order_acquire) > 0) {
      // Output is pending: the clock that matters is write progress
      // since the output became pending. A peer that stopped reading is
      // a backpressure casualty, whatever else it is doing.
      const auto stalled =
          now - std::max(conn->last_write_progress.Load(),
                         conn->output_pending_since.Load());
      const bool hit =
          (options_.send_timeout_seconds > 0 && stalled >= send_limit) ||
          (options_.idle_timeout_seconds > 0 && stalled >= idle_limit);
      if (hit) {
        // A failed handshake waiting out its flush keeps its own label.
        const DropReason reason =
            conn->close_after_flush &&
                    conn->flush_drop_reason != DropReason::kNone
                ? conn->flush_drop_reason
                : DropReason::kBackpressure;
        expired.emplace_back(conn, reason);
      }
      continue;
    }
    // A worker owns the connection (request running, stream parked, or
    // ingest consuming its channel — which applies the idle bound per
    // frame itself); the sweep leaves it alone.
    bool executing;
    {
      MutexLock lock(conn->mu);
      executing = conn->executing;
    }
    if (executing) continue;
    if (options_.idle_timeout_seconds > 0 &&
        now - conn->last_activity.Load() >= idle_limit) {
      expired.emplace_back(conn, DropReason::kIdle);
    }
  }
  for (const auto& entry : expired) {
    DropConnection(entry.first, entry.second);
  }
}

void PrivHPServer::DropConnection(const std::shared_ptr<Connection>& conn,
                                  DropReason reason) {
  if (conn->dropped) return;
  conn->dropped = true;
  (void)loop_.Del(conn->sock.fd());
  switch (reason) {
    case DropReason::kIdle:
      metrics_->dropped_idle->Inc();
      break;
    case DropReason::kBackpressure:
      metrics_->dropped_backpressure->Inc();
      break;
    case DropReason::kAuth:
      metrics_->dropped_auth->Inc();
      break;
    case DropReason::kNone:
      break;
  }
  metrics_->connections_open->Add(-1);
  size_t queued = 0;
  {
    MutexLock lock(conn->mu);
    conn->closed = true;
    conn->pending.clear();
    conn->writer = FrameWriter();
    conn->parked.reset();
    // Exchanged under mu so a racing EnqueueFrame either lands before
    // (its bytes are in `queued`) or observes closed and adds nothing.
    queued = conn->queued_bytes.exchange(0, std::memory_order_relaxed);
  }
  if (queued > 0) {
    metrics_->output_queue_bytes->Add(-static_cast<int64_t>(queued));
  }
  {
    MutexLock lock(conn->ingest_mu);
    conn->ingest_closed = true;
    conn->ingest_frames.clear();
    conn->ingest_bytes = 0;
  }
  conn->ingest_cv.NotifyAll();
  conn->sock.Close();
  conns_.erase(conn->tag);
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

void PrivHPServer::SubmitTask(Task task) {
  {
    MutexLock lock(task_mu_);
    tasks_.push_back(std::move(task));
  }
  metrics_->queue_depth->Add(1);
  task_cv_.NotifyOne();
}

void PrivHPServer::WorkerLoop(int worker_index) {
  RandomEngine engine =
      RandomEngine(options_.seed).Fork(static_cast<uint64_t>(worker_index));
  for (;;) {
    Task task;
    {
      MutexLock lock(task_mu_);
      // Explicit wait loop (not wait-with-predicate): the thread-safety
      // analysis needs to see the guarded tasks_ read under the lock in
      // this function, not inside a lambda.
      while (!stopping_.load() && tasks_.empty()) task_cv_.Wait(task_mu_);
      if (stopping_.load()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    metrics_->queue_depth->Add(-1);
    metrics_->queue_wait_ns->Record(
        ElapsedNs(task.enqueued, std::chrono::steady_clock::now()));
    metrics_->workers_busy->Add(1);
    ExecuteTask(std::move(task), &engine);
    metrics_->workers_busy->Add(-1);
  }
}

void PrivHPServer::ExecuteTask(Task task, RandomEngine* engine) {
  bool continuable;
  if (task.resume) {
    std::unique_ptr<ResponseStream> stream;
    {
      MutexLock lock(task.conn->mu);
      stream = std::move(task.conn->parked);
      task.conn->resume_scheduled = false;
    }
    // A null stream means the connection dropped between scheduling and
    // execution; there is nothing left to finish.
    if (stream == nullptr) return;
    continuable = RunStream(std::move(stream));
  } else {
    continuable = ExecuteRequest(task.conn, std::move(task.request), engine);
  }
  // Inline continuation: while the connection has pipelined requests
  // waiting and the last one completed cleanly, keep the execution slot
  // and run the next one right here — bouncing through the reactor and
  // the task queue would cost two thread wake-ups per request. Bounded
  // so one pipelining peer cannot monopolize a worker: past the budget
  // the slot goes back through the reactor, which re-submits the
  // connection at the tail of the task queue.
  int budget = kMaxInlineRequestsPerTask;
  while (continuable) {
    PendingRequest next;
    {
      MutexLock lock(task.conn->mu);
      if (task.conn->closed || task.conn->pending.empty()) {
        task.conn->executing = false;
        return;
      }
      if (--budget <= 0) {
        task.conn->request_done = true;
        break;
      }
      next = std::move(task.conn->pending.front());
      task.conn->pending.pop_front();
    }
    continuable = ExecuteRequest(task.conn, std::move(next), engine);
  }
  NotifyConn(task.conn);
}

bool PrivHPServer::ExecuteRequest(const std::shared_ptr<Connection>& conn,
                                  PendingRequest pending,
                                  RandomEngine* engine) {
  // Latency covers dispatch through the last response frame enqueued
  // (parked stream time included: a slow-reading peer IS tail latency to
  // the next request on this connection). Bytes in is the request frame,
  // for INGEST too: its point stream's size is the un-noised stream
  // length, which no metric may reveal. Bytes out is every frame queued
  // for the request, SAMPLE's response stream included.
  RequestScope scope;
  scope.started = std::chrono::steady_clock::now();
  scope.bytes_in = pending.bytes_in;
  RequestOutcome outcome;
  if (!pending.parse_error.ok()) {
    // Unparseable frame: answer once and close. There is no endpoint to
    // charge the error to, so only the server totals see it.
    outcome = RequestOutcome::Reply(pending.parse_error);
    outcome.drop = DropReason::kNone;
  } else {
    scope.ep = &metrics_->ForOp(pending.req.op);
    scope.ep->requests->Inc();
    outcome = DispatchRequest(conn, pending.req, engine, &scope);
  }
  if (outcome.stream != nullptr) {
    outcome.stream->scope = scope;
    return RunStream(std::move(outcome.stream));
  }
  return CompleteRequest(conn, &scope, std::move(outcome));
}

bool PrivHPServer::RunStream(std::unique_ptr<ResponseStream> stream) {
  const std::shared_ptr<Connection> conn = stream->conn;
  const ResponseStream::PumpResult result = stream->Pump();
  if (result == ResponseStream::PumpResult::kParked) {
    {
      MutexLock lock(conn->mu);
      if (!conn->closed) conn->parked = std::move(stream);
    }
    if (stream == nullptr) {
      NotifyConn(conn);
      return false;
    }
    // The connection dropped while we streamed (stream was not taken);
    // finish the request so its slot is not stuck (no one will read
    // the response anyway).
    return CompleteRequest(conn, &stream->scope, RequestOutcome());
  }
  RequestOutcome outcome;
  if (result == ResponseStream::PumpResult::kFailed) {
    outcome.drop = DropReason::kNone;
  }
  return CompleteRequest(conn, &stream->scope, std::move(outcome));
}

PrivHPServer::RequestOutcome PrivHPServer::RequestOutcome::Reply(
    Result<std::string> reply) {
  RequestOutcome outcome;
  outcome.reply = std::move(reply);
  return outcome;
}

PrivHPServer::RequestOutcome PrivHPServer::RequestOutcome::Drop(
    DropReason reason) {
  RequestOutcome outcome;
  outcome.drop = reason;
  return outcome;
}

std::string PrivHPServer::ReplyFrame(Result<std::string> reply,
                                     EndpointMetrics* ep) {
  if (reply.ok()) return std::move(*reply);
  metrics_->errors->Inc();
  if (ep != nullptr) ep->errors->Inc();
  return EncodeErrorResponse(reply.status());
}

bool PrivHPServer::CompleteRequest(const std::shared_ptr<Connection>& conn,
                                   RequestScope* scope,
                                   RequestOutcome outcome) {
  std::string frame = ReplyFrame(std::move(outcome.reply), scope->ep);
  scope->bytes_out += frame.size();
  // Record before the slot can move on: the connection's next pipelined
  // request (a STATS, say — whether started inline by this worker or by
  // the reactor once it sees request_done) must observe this one's
  // metrics.
  if (scope->ep != nullptr) {
    scope->ep->latency_ns->Record(
        ElapsedNs(scope->started, std::chrono::steady_clock::now()));
    scope->ep->bytes_in->Record(scope->bytes_in);
    scope->ep->bytes_out->Record(scope->bytes_out);
  }
  // The reactor has cleanup to do (close after flush / release the
  // expected ingest stream): hand the slot back through request_done.
  // Otherwise the worker keeps the execution slot and may continue with
  // the connection's next pending request inline.
  const bool hand_back = outcome.drop.has_value() || outcome.release_stream;
  size_t queued = 0;
  size_t flushed = 0;
  bool written = false;
  bool notify = hand_back;
  {
    // The reply and the flags land under one hold of mu, so the reactor
    // never flushes a rejected INGEST's error without also seeing its
    // stream released: a request the peer sends after reading the error
    // is routed as a request, never as stream data.
    MutexLock lock(conn->mu);
    const bool sole_output = conn->writer.empty();
    if (!frame.empty()) queued = conn->QueueLocked(std::move(frame));
    if (outcome.release_stream) conn->release_stream = true;
    if (hand_back) {
      conn->request_done = true;
      conn->done_drop = outcome.drop;
    }
    if (queued > 0) {
      notify = true;
      // Write-through: a reply that is the connection's only output, with
      // nothing for the reactor to apply and no pipelined request behind
      // it, goes out from here — the reactor hand-off (ready list,
      // eventfd, a pump) would cost more than the request. A pipelined
      // window is left to the reactor, which sends its replies in one
      // sendmsg. Whatever the socket does not take (a partial write,
      // EAGAIN, an error) stays queued for the reactor to finish or drop.
      if (sole_output && !hand_back && conn->pending.empty()) {
        Result<bool> drained = conn->FlushLocked(&flushed);
        written = drained.ok() && *drained;
        notify = !written || conn->input_held;
      }
    }
  }
  if (queued != flushed) {
    metrics_->output_queue_bytes->Add(static_cast<int64_t>(queued) -
                                      static_cast<int64_t>(flushed));
  }
  if (written) metrics_->replies_written_by_worker->Inc();
  if (notify) NotifyConn(conn);
  return !hand_back;
}

Status PrivHPServer::EnqueueFrame(const std::shared_ptr<Connection>& conn,
                                  std::string frame, RequestScope* scope) {
  if (scope != nullptr) scope->bytes_out += frame.size();
  size_t queued;
  {
    MutexLock lock(conn->mu);
    queued = conn->QueueLocked(std::move(frame));
  }
  if (queued == 0) return Status::IOError("connection dropped");
  metrics_->output_queue_bytes->Add(static_cast<int64_t>(queued));
  NotifyConn(conn);
  return Status::OK();
}

void PrivHPServer::NotifyConn(const std::shared_ptr<Connection>& conn) {
  if (conn->in_ready.exchange(true, std::memory_order_acq_rel)) return;
  {
    MutexLock lock(ready_mu_);
    ready_.push_back(conn);
  }
  loop_.Wake();
}

// ---------------------------------------------------------------------------
// Request dispatch (worker threads)
// ---------------------------------------------------------------------------

PrivHPServer::RequestOutcome PrivHPServer::DispatchRequest(
    const std::shared_ptr<Connection>& conn, const ServiceRequest& req,
    RandomEngine* engine, RequestScope* scope) {
  switch (req.op) {
    case ServiceOp::kSample:
      return HandleSampleRequest(conn, req, engine, scope);
    case ServiceOp::kExport:
      return HandleExportRequest(conn, req, scope);
    case ServiceOp::kIngest:
      return HandleIngestRequest(conn, req, scope);
    case ServiceOp::kAuth: {
      // Reached only when the reactor did not demand the handshake up
      // front (Unix transport, or no token configured): a correct or
      // unnecessary token is fine, a wrong one is rejected on any
      // transport.
      RequestOutcome outcome =
          RequestOutcome::Reply(HandleAuth(req, options_.auth_token));
      if (!outcome.reply.ok()) outcome.drop = DropReason::kAuth;
      return outcome;
    }
    case ServiceOp::kPing:
      return RequestOutcome::Reply(HandlePing());
    case ServiceOp::kList:
      return RequestOutcome::Reply(HandleList(*registry_));
    case ServiceOp::kStats:
      return RequestOutcome::Reply(HandleStats(StatsSnapshot()));
    case ServiceOp::kRange:
      return RequestOutcome::Reply(HandleRange(req, *registry_));
    case ServiceOp::kQuantile:
      return RequestOutcome::Reply(HandleQuantile(req, *registry_));
    case ServiceOp::kHeavy:
      return RequestOutcome::Reply(HandleHeavy(req, *registry_));
  }
  return RequestOutcome::Reply(
      Status::Internal("unhandled opcode in dispatch"));
}

PrivHPServer::RequestOutcome PrivHPServer::HandleSampleRequest(
    const std::shared_ptr<Connection>& conn, const ServiceRequest& req,
    RandomEngine* engine, RequestScope* scope) {
  Result<std::shared_ptr<const ServedArtifact>> artifact =
      registry_->Get(req.artifact);
  if (!artifact.ok()) return RequestOutcome::Reply(artifact.status());
  if (options_.max_sample_points > 0 && req.m > options_.max_sample_points) {
    return RequestOutcome::Reply(Status::InvalidArgument(
        "m exceeds the server's per-request limit of " +
        std::to_string(options_.max_sample_points)));
  }
  WireWriter header = BeginOkResponse();
  header.PutU32(static_cast<uint32_t>((*artifact)->domain().dimension()));
  header.PutU64(req.m);
  if (!EnqueueFrame(conn, header.Take(), scope).ok()) {
    return RequestOutcome::Drop(DropReason::kNone);
  }

  auto stream = std::make_unique<SampleStream>();
  stream->server = this;
  stream->conn = conn;
  stream->artifact = std::move(*artifact);
  stream->remaining = req.m;
  stream->total = req.m;
  // seed != 0: a dedicated engine, so the response depends only on
  // (artifact, m, seed) — not on which worker served it or what it
  // served before. seed == 0: an engine derived from (and advancing)
  // the worker's own, so concurrent fresh samples never correlate.
  stream->engine = req.seed != 0 ? RandomEngine(req.seed)
                                 : RandomEngine(engine->NextUint64());
  SampleStream* raw = stream.get();
  stream->sink = std::make_unique<SocketPointSink>(
      FrameSendFn([this, raw](std::string payload) {
        return EnqueueFrame(raw->conn, std::move(payload), &raw->scope);
      }),
      kSampleBatch);
  RequestOutcome outcome;
  outcome.stream = std::move(stream);
  return outcome;
}

PrivHPServer::RequestOutcome PrivHPServer::HandleExportRequest(
    const std::shared_ptr<Connection>& conn, const ServiceRequest& req,
    RequestScope* scope) {
  Result<std::shared_ptr<const ServedArtifact>> artifact =
      registry_->Get(req.artifact);
  if (!artifact.ok()) return RequestOutcome::Reply(artifact.status());
  Result<std::string> blob = (*artifact)->ExportBlob();
  if (!blob.ok()) return RequestOutcome::Reply(blob.status());

  // Stream the blob across as many chunk frames as it needs: the OK
  // header promises the total, each chunk carries raw bytes, and the
  // end frame echoes the total as a completeness check. No artifact
  // size can hit the frame limit.
  WireWriter header = BeginOkResponse();
  header.PutU64(blob->size());
  if (!EnqueueFrame(conn, header.Take(), scope).ok()) {
    return RequestOutcome::Drop(DropReason::kNone);
  }
  auto stream = std::make_unique<ExportStream>();
  stream->server = this;
  stream->conn = conn;
  stream->blob = std::move(*blob);
  RequestOutcome outcome;
  outcome.stream = std::move(stream);
  return outcome;
}

PrivHPServer::RequestOutcome PrivHPServer::HandleIngestRequest(
    const std::shared_ptr<Connection>& conn, const ServiceRequest& req,
    RequestScope* scope) {
  // A rejection before the ack releases the point stream the peer would
  // have sent: the client only starts streaming after the OK, so the
  // error leaves the connection in sync.
  auto reject = [](const Status& error) {
    RequestOutcome outcome = RequestOutcome::Reply(error);
    outcome.release_stream = true;
    return outcome;
  };

  if (req.artifact.empty()) {
    return reject(Status::InvalidArgument("ingest needs an artifact name"));
  }
  if (req.dim < 1 || req.dim > 64) {
    return reject(Status::InvalidArgument("ingest dim must be in [1, 64]"));
  }
  if (req.n == 0) {
    return reject(Status::InvalidArgument(
        "ingest needs the expected stream length n (the streaming horizon)"));
  }
  if (req.threads < 1 || req.threads > kMaxIngestThreads) {
    return reject(Status::InvalidArgument(
        "ingest threads must be in [1, " +
        std::to_string(kMaxIngestThreads) + "]"));
  }

  auto domain = std::make_unique<HypercubeDomain>(static_cast<int>(req.dim));
  PrivHPOptions options;
  options.epsilon = req.epsilon;
  options.k = req.k;
  options.expected_n = req.n;
  options.seed = req.seed;

  // Resolve the plan before acknowledging, so bad parameters
  // (epsilon <= 0, ...) are rejected without the client streaming
  // anything.
  {
    Result<PrivHPBuilder> probe = PrivHPBuilder::Make(domain.get(), options);
    if (!probe.ok()) return reject(probe.status());
  }
  if (!EnqueueFrame(conn, BeginOkResponse().Take(), scope).ok()) {
    return RequestOutcome::Drop(DropReason::kNone);
  }

  // The point stream arrives through the connection's ingest channel:
  // the reactor forwards raw frames, this worker decodes them. The idle
  // deadline restarts per frame — it bounds silence, not the lifetime
  // of a steadily streaming peer.
  bool timed_out = false;
  FrameRecvFn recv = [this, conn, &timed_out](std::string* payload)
      -> Result<bool> {
    MutexLock lock(conn->ingest_mu);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::seconds(options_.idle_timeout_seconds);
    for (;;) {
      if (!conn->ingest_frames.empty()) {
        *payload = std::move(conn->ingest_frames.front());
        conn->ingest_frames.pop_front();
        conn->ingest_bytes -= payload->size();
        lock.Unlock();
        // The channel may have been full; let the reactor re-arm reads.
        NotifyConn(conn);
        return true;
      }
      if (conn->ingest_closed) {
        return Status::IOError("connection dropped mid point stream");
      }
      if (stopping_.load()) {
        return Status::FailedPrecondition("server stopping");
      }
      if (options_.idle_timeout_seconds > 0 &&
          std::chrono::steady_clock::now() >= deadline) {
        timed_out = true;
        return Status::FailedPrecondition("point stream idle timeout");
      }
      (void)conn->ingest_cv.WaitFor(conn->ingest_mu,
                                    std::chrono::milliseconds(100));
    }
  };
  SocketPointSource source(std::move(recv), static_cast<int>(req.dim));
  Result<PrivHPGenerator> generator = PrivHPBuilder::BuildParallel(
      domain.get(), options, &source, static_cast<int>(req.threads));
  // No metric reads the stream's length (points, frames or bytes): it is
  // the un-noised n, and op.ingest.bytes_in counts only the request
  // frame (privhp_lint PHL005).
  RequestOutcome outcome;
  if (!generator.ok()) {
    if (source.cancelled()) {
      // A cancelled stream (shutdown, or the peer idle-timing out) has
      // no live sender to resync with — draining would just park the
      // worker for a second timeout window, so drop the connection.
      outcome = RequestOutcome::Drop(timed_out ? DropReason::kIdle
                                               : DropReason::kNone);
    } else if (!source.SkipToEnd().ok()) {
      // Regaining frame sync failed: the connection is beyond saving,
      // and the build error (not the drain error) is what is worth
      // reporting — to no one.
      outcome = RequestOutcome::Drop(DropReason::kNone);
    } else {
      outcome = RequestOutcome::Reply(generator.status());
    }
  } else {
    const uint64_t nodes = generator->tree().num_nodes();
    const double mass = generator->TotalMass();
    const Status published = registry_->Publish(
        req.artifact,
        ServedArtifact::Make(std::move(domain), std::move(*generator),
                             "ingest"));
    if (published.ok()) {
      metrics_->ingests_published->Inc();
      WireWriter w = BeginOkResponse();
      w.PutU64(nodes);
      w.PutDouble(mass);
      outcome = RequestOutcome::Reply(w.Take());
    } else {
      outcome = RequestOutcome::Reply(published);
    }
  }
  // Until its end frame is consumed the request owes the stream; a
  // stream that ended early is released for the reactor to forget.
  outcome.release_stream = !source.finished();
  return outcome;
}

// ---------------------------------------------------------------------------
// Stats snapshot
// ---------------------------------------------------------------------------

obs::MetricsSnapshot PrivHPServer::StatsSnapshot() const {
  obs::MetricsSnapshot snap = metrics_registry_->Snapshot();
  auto counter = [&snap](std::string name, uint64_t value) {
    snap.counters.push_back({std::move(name), value});
  };
  auto gauge = [&snap](std::string name, int64_t value) {
    snap.gauges.push_back({std::move(name), value});
  };

  // Serving-tier state is read at snapshot time rather than maintained
  // by hot-path increments: the registry and pools already keep these
  // totals, so the STATS op just asks them.
  counter("registry.publishes", registry_->publishes());
  gauge("registry.artifacts", static_cast<int64_t>(registry_->size()));
  gauge("registry.resident_bytes",
        static_cast<int64_t>(registry_->resident_bytes()));

  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
  uint64_t pool_verifies = 0;
  for (const std::string& name : registry_->List()) {
    Result<std::shared_ptr<const ServedArtifact>> artifact =
        registry_->Get(name);
    if (!artifact.ok()) continue;  // raced with Remove; skip
    const std::string prefix = "artifact." + name + ".";
    gauge(prefix + "resident_bytes",
          static_cast<int64_t>((*artifact)->ResidentBytes()));
    gauge(prefix + "nodes", static_cast<int64_t>((*artifact)->num_nodes()));
    gauge(prefix + "repr",
          static_cast<int64_t>((*artifact)->representation()));
    // The file's page size (0 for heap): what one pool miss reads and
    // checksums. A format parameter, not derived from the data.
    const storage::PagedArtifact* paged = (*artifact)->paged();
    gauge(prefix + "page_bytes",
          paged != nullptr ? static_cast<int64_t>(paged->header().page_size)
                           : 0);
    if (const storage::BufferPool* pool = (*artifact)->buffer_pool()) {
      const storage::BufferPool::Stats ps = pool->stats();
      pool_hits += ps.hits;
      pool_misses += ps.misses;
      pool_evictions += ps.evictions;
      pool_verifies += ps.checksum_verifies;
    }
  }
  counter("pool.hits", pool_hits);
  counter("pool.misses", pool_misses);
  counter("pool.evictions", pool_evictions);
  counter("pool.checksum_verifies", pool_verifies);

  // Re-establish the sorted-by-name invariant the appends broke.
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  return snap;
}

}  // namespace privhp
