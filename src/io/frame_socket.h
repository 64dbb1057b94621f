// Stream sockets with length-prefixed framing — the transport under the
// service layer and the socket point streams.
//
// A frame is a u32 little-endian payload length followed by the payload
// bytes. Framing lives here (not in src/service/) so a PointSource /
// PointSink pair can ride raw sockets without pulling in the query
// protocol: the ingestion front end and the query server share one
// transport.
//
// FrameReader and FrameWriter are the only framing code: the header is
// encoded in FrameWriter::Enqueue and decoded in FrameReader::Poll.
// Both are state machines that consume or produce as many bytes as the
// socket allows and resume exactly where they left off. On a
// non-blocking socket (the server's reactor) they park on EAGAIN until
// the next readiness event; on a blocking socket (the client) Poll
// returns only at a frame or EOF, and Pump returns false only when a
// signal cut a sendmsg short, so the caller pumps again.

#ifndef PRIVHP_IO_FRAME_SOCKET_H_
#define PRIVHP_IO_FRAME_SOCKET_H_

#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "common/status.h"

namespace privhp {

/// \brief Movable RAII wrapper over a socket file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();

 private:
  int fd_ = -1;
};

/// \brief Listens on TCP \p host:\p port. Port 0 binds an ephemeral port;
/// the bound port is written to \p bound_port when non-null. Listeners
/// are non-blocking: accept them with AcceptReady.
Result<Socket> ListenTcp(const std::string& host, uint16_t port,
                         uint16_t* bound_port);

/// \brief Listens on a Unix-domain socket at \p path (unlinked first).
Result<Socket> ListenUnix(const std::string& path);

Result<Socket> ConnectTcp(const std::string& host, uint16_t port);
Result<Socket> ConnectUnix(const std::string& path);

/// \brief Non-blocking accept for readiness loops. When no connection is
/// pending, sets *\p would_block and returns an invalid Socket. The
/// accepted socket is left in non-blocking mode (FrameReader/FrameWriter
/// expect it that way).
Result<Socket> AcceptReady(const Socket& listener, bool* would_block);

/// \brief A connected AF_UNIX pair (tests and in-process plumbing).
Result<std::pair<Socket, Socket>> SocketPair();

/// \brief Upper bound on a single frame payload (64 MiB); larger lengths
/// are rejected as malformed so a bad peer cannot force huge allocations.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// \brief Reads frames off one connection.
///
/// Poll() reads whatever the kernel has buffered and returns kFrame once
/// a complete frame is assembled in frame() — call Poll() again for the
/// next frame. kNeedMore means a non-blocking socket drained mid-frame
/// (or between frames): park the reader and call Poll() again on the
/// next EPOLLIN. On a blocking socket Poll() waits instead, so it never
/// returns kNeedMore. A clean EOF at a frame boundary is kEof; EOF
/// mid-frame, an oversized length header, or a socket error come back
/// as a Status error. The reader over-reads, so every receive on its
/// connection must go through it.
class FrameReader {
 public:
  enum class Event { kFrame, kNeedMore, kEof };

  Result<Event> Poll(const Socket& sock);

  /// \brief The last completed frame payload (valid after kFrame, until
  /// the next Poll()). Callers may std::move it out.
  std::string& frame() { return frame_; }

  /// \brief Total payload+header bytes consumed, for activity tracking.
  uint64_t bytes_received() const { return bytes_received_; }

  /// \brief True when unparsed bytes sit in the read buffer. Poll()
  /// over-reads the socket (one recv can carry many small frames), so a
  /// caller that stops polling early — a fairness cap, say — must
  /// reschedule itself when this is set: the kernel side may be drained
  /// and EPOLLIN will not fire again for buffered data.
  bool has_buffered() const { return pos_ < len_; }

 private:
  std::string frame_;
  std::string buf_;   ///< read buffer (sized once); [pos_, len_) unparsed
  size_t pos_ = 0;
  size_t len_ = 0;
  size_t body_have_ = 0;
  bool in_body_ = false;
  uint64_t bytes_received_ = 0;
};

/// \brief Writes frames to one connection.
///
/// Enqueue() queues a payload behind its u32 LE length header (kept
/// beside it, so the payload is not copied); Pump() writes until the
/// socket would block or the queue drains, returning true when empty.
/// A reactor keeps EPOLLOUT armed exactly while pending_bytes() > 0; a
/// blocking caller pumps until true.
class FrameWriter {
 public:
  Status Enqueue(std::string payload);

  /// \brief Writes queued bytes; true when the queue is fully drained.
  Result<bool> Pump(const Socket& sock);

  /// \brief Queued-but-unsent bytes (headers included).
  size_t pending_bytes() const { return pending_bytes_; }
  bool empty() const { return queue_.empty(); }

  /// \brief Total bytes handed to the kernel, for activity tracking.
  uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  struct Frame {
    char header[4];
    std::string payload;
  };
  std::deque<Frame> queue_;
  size_t front_offset_ = 0;  // bytes of queue_.front() (header first) sent
  size_t pending_bytes_ = 0;
  uint64_t bytes_sent_ = 0;
};

}  // namespace privhp

#endif  // PRIVHP_IO_FRAME_SOCKET_H_
