#include "io/frame_socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/macros.h"

namespace privhp {

namespace {

constexpr int kPollIntervalMs = 100;

Status ErrnoStatus(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

// Waits until `fd` is readable, polling `cancel` between timeouts.
Status WaitReadable(int fd, const CancelFn& cancel) {
  for (;;) {
    if (cancel && cancel()) return Status::FailedPrecondition("cancelled");
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, cancel ? kPollIntervalMs : -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("poll");
    }
    if (rc > 0) return Status::OK();
  }
}

// Reads exactly `size` bytes. Returns false on EOF before the first byte;
// EOF after a partial read is an IOError (torn frame).
Result<bool> RecvAll(int fd, char* data, size_t size, const CancelFn& cancel) {
  size_t got = 0;
  while (got < size) {
    PRIVHP_RETURN_NOT_OK(WaitReadable(fd, cancel));
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return ErrnoStatus("recv");
    }
    if (n == 0) {
      if (got == 0) return false;
      return Status::IOError("connection closed mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return true;
}

Status SetNonBlocking(int fd, bool enable) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return ErrnoStatus("fcntl(F_GETFL)");
  const int want = enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && ::fcntl(fd, F_SETFL, want) < 0) {
    return ErrnoStatus("fcntl(F_SETFL)");
  }
  return Status::OK();
}

Result<Socket> MakeTcpAddress(const std::string& host, uint16_t port,
                              struct sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  return Socket(fd);
}

Result<Socket> MakeUnixAddress(const std::string& path,
                               struct sockaddr_un* addr) {
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) {
    return Status::InvalidArgument("unix socket path empty or too long: " +
                                   path);
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  return Socket(fd);
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Socket> ListenTcp(const std::string& host, uint16_t port,
                         uint16_t* bound_port) {
  struct sockaddr_in addr;
  PRIVHP_ASSIGN_OR_RETURN(Socket sock, MakeTcpAddress(host, port, &addr));
  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(sock.fd(), reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return ErrnoStatus("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(sock.fd(), SOMAXCONN) < 0) return ErrnoStatus("listen");
  // Non-blocking listener: a pending connection can vanish between
  // poll() and accept() (async network error, linger-0 reset), and a
  // blocking accept() would then sleep past the cancel predicate.
  PRIVHP_RETURN_NOT_OK(SetNonBlocking(sock.fd(), true));
  if (bound_port != nullptr) {
    struct sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(sock.fd(), reinterpret_cast<struct sockaddr*>(&bound),
                      &len) < 0) {
      return ErrnoStatus("getsockname");
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return sock;
}

Result<Socket> ListenUnix(const std::string& path) {
  struct sockaddr_un addr;
  PRIVHP_ASSIGN_OR_RETURN(Socket sock, MakeUnixAddress(path, &addr));
  ::unlink(path.c_str());
  if (::bind(sock.fd(), reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return ErrnoStatus("bind " + path);
  }
  if (::listen(sock.fd(), SOMAXCONN) < 0) return ErrnoStatus("listen");
  PRIVHP_RETURN_NOT_OK(SetNonBlocking(sock.fd(), true));  // see ListenTcp
  return sock;
}

Result<Socket> ConnectTcp(const std::string& host, uint16_t port) {
  struct sockaddr_in addr;
  PRIVHP_ASSIGN_OR_RETURN(Socket sock, MakeTcpAddress(host, port, &addr));
  if (::connect(sock.fd(), reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    return ErrnoStatus("connect " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

Result<Socket> ConnectUnix(const std::string& path) {
  struct sockaddr_un addr;
  PRIVHP_ASSIGN_OR_RETURN(Socket sock, MakeUnixAddress(path, &addr));
  if (::connect(sock.fd(), reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    return ErrnoStatus("connect " + path);
  }
  return sock;
}

Result<Socket> AcceptReady(const Socket& listener, bool* would_block) {
  *would_block = false;
  if (!listener.valid()) {
    return Status::InvalidArgument("accept on an invalid socket");
  }
  for (;;) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      Socket conn(fd);
      // O_NONBLOCK inheritance across accept() is platform-defined; the
      // readiness loop needs it set.
      PRIVHP_RETURN_NOT_OK(SetNonBlocking(fd, true));
      return conn;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      *would_block = true;
      return Socket();
    }
    return ErrnoStatus("accept");
  }
}

Status SetSocketNonBlocking(const Socket& sock, bool enable) {
  if (!sock.valid()) {
    return Status::InvalidArgument("fcntl on an invalid socket");
  }
  return SetNonBlocking(sock.fd(), enable);
}

Result<Socket> Accept(const Socket& listener, const CancelFn& cancel) {
  if (!listener.valid()) {
    return Status::InvalidArgument("accept on an invalid socket");
  }
  for (;;) {
    PRIVHP_RETURN_NOT_OK(WaitReadable(listener.fd(), cancel));
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      Socket conn(fd);
      // O_NONBLOCK inheritance across accept() is platform-defined;
      // frame I/O expects blocking connection sockets.
      PRIVHP_RETURN_NOT_OK(SetNonBlocking(fd, false));
      return conn;
    }
    // EAGAIN: the ready connection vanished between poll and accept —
    // back to the poll loop so the cancel predicate stays live.
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return ErrnoStatus("accept");
  }
}

Result<std::pair<Socket, Socket>> SocketPair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) < 0) {
    return ErrnoStatus("socketpair");
  }
  return std::make_pair(Socket(fds[0]), Socket(fds[1]));
}

Status SendFrame(const Socket& sock, const std::string& payload) {
  if (!sock.valid()) {
    return Status::InvalidArgument("send on an invalid socket");
  }
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame exceeds " +
                                   std::to_string(kMaxFrameBytes) + " bytes");
  }
  const uint32_t size = static_cast<uint32_t>(payload.size());
  char header[4];
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<char>((size >> (8 * i)) & 0xff);
  }
  // Header and payload leave in one sendmsg: a request is one syscall
  // (and, on TCP, one segment) instead of two. A partial write advances
  // through the pair and sends the rest.
  struct iovec iov[2];
  iov[0].iov_base = header;
  iov[0].iov_len = sizeof(header);
  iov[1].iov_base = const_cast<char*>(payload.data());
  iov[1].iov_len = payload.size();
  struct msghdr msg;
  std::memset(&msg, 0, sizeof(msg));
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    const ssize_t n = ::sendmsg(sock.fd(), &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("sendmsg");
    }
    size_t sent = static_cast<size_t>(n);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
  return Status::OK();
}

Result<bool> RecvFrame(const Socket& sock, std::string* payload,
                       const CancelFn& cancel) {
  if (!sock.valid()) {
    return Status::InvalidArgument("recv on an invalid socket");
  }
  char header[4];
  PRIVHP_ASSIGN_OR_RETURN(bool more,
                          RecvAll(sock.fd(), header, sizeof(header), cancel));
  if (!more) return false;
  uint32_t size = 0;
  for (int i = 0; i < 4; ++i) {
    size |= static_cast<uint32_t>(static_cast<uint8_t>(header[i])) << (8 * i);
  }
  if (size > kMaxFrameBytes) {
    return Status::IOError("oversized frame: " + std::to_string(size) +
                           " bytes");
  }
  payload->resize(size);
  if (size == 0) return true;
  PRIVHP_ASSIGN_OR_RETURN(bool body,
                          RecvAll(sock.fd(), &(*payload)[0], size, cancel));
  if (!body) return Status::IOError("connection closed mid-frame");
  return true;
}

// Poll() parses frames out of a read buffer refilled one recv at a
// time: a burst of small pipelined frames costs one syscall, not two
// per frame. Bodies whose remainder exceeds the buffer are received
// straight into frame_, skipping the extra copy.
Result<FrameReader::Event> FrameReader::Poll(const Socket& sock) {
  constexpr size_t kReadBufBytes = 64 * 1024;
  if (!sock.valid()) {
    return Status::InvalidArgument("recv on an invalid socket");
  }
  if (buf_.size() != kReadBufBytes) buf_.resize(kReadBufBytes);
  for (;;) {
    if (!in_body_ && len_ - pos_ >= 4) {
      uint32_t size = 0;
      for (int i = 0; i < 4; ++i) {
        size |= static_cast<uint32_t>(static_cast<uint8_t>(buf_[pos_ + i]))
                << (8 * i);
      }
      if (size > kMaxFrameBytes) {
        return Status::IOError("oversized frame: " + std::to_string(size) +
                               " bytes");
      }
      pos_ += 4;
      frame_.clear();
      frame_.resize(size);
      body_have_ = 0;
      in_body_ = true;
    }
    if (in_body_) {
      const size_t take = std::min(len_ - pos_, frame_.size() - body_have_);
      if (take > 0) {
        std::memcpy(&frame_[body_have_], buf_.data() + pos_, take);
        pos_ += take;
        body_have_ += take;
      }
      if (body_have_ == frame_.size()) {
        in_body_ = false;
        return Event::kFrame;
      }
      if (frame_.size() - body_have_ >= kReadBufBytes) {
        // Large body and the buffer is drained (take emptied it):
        // receive the rest directly into the frame.
        const ssize_t n = ::recv(sock.fd(), &frame_[body_have_],
                                 frame_.size() - body_have_, 0);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) return Event::kNeedMore;
          return ErrnoStatus("recv");
        }
        if (n == 0) return Status::IOError("connection closed mid-frame");
        body_have_ += static_cast<size_t>(n);
        bytes_received_ += static_cast<uint64_t>(n);
        continue;
      }
    }
    // Refill: compact the consumed prefix, then one recv into the tail.
    if (pos_ > 0) {
      if (len_ > pos_) std::memmove(&buf_[0], buf_.data() + pos_, len_ - pos_);
      len_ -= pos_;
      pos_ = 0;
    }
    const ssize_t n = ::recv(sock.fd(), &buf_[len_], kReadBufBytes - len_, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Event::kNeedMore;
      return ErrnoStatus("recv");
    }
    if (n == 0) {
      // EOF: clean only at a frame boundary with nothing buffered.
      if (in_body_ || len_ > 0) {
        return Status::IOError("connection closed mid-frame");
      }
      return Event::kEof;
    }
    len_ += static_cast<size_t>(n);
    bytes_received_ += static_cast<uint64_t>(n);
  }
}

Status FrameWriter::Enqueue(std::string payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame exceeds " +
                                   std::to_string(kMaxFrameBytes) + " bytes");
  }
  const uint32_t size = static_cast<uint32_t>(payload.size());
  char header[4];
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<char>((size >> (8 * i)) & 0xff);
  }
  payload.insert(0, header, sizeof(header));
  pending_bytes_ += payload.size();
  queue_.push_back(std::move(payload));
  return Status::OK();
}

Result<bool> FrameWriter::Pump(const Socket& sock) {
  if (!sock.valid()) {
    return Status::InvalidArgument("send on an invalid socket");
  }
  while (!queue_.empty()) {
    // Gather as many queued frames as fit into one vectored send:
    // pipelined responses are tiny, and one sendmsg per flush instead of
    // one send per frame is most of the reactor's write-side cost.
    struct iovec iov[64];
    int iov_count = 0;
    size_t batched = 0;
    for (const std::string& frame : queue_) {
      if (iov_count == 64) break;
      const size_t offset = iov_count == 0 ? front_offset_ : 0;
      iov[iov_count].iov_base =
          const_cast<char*>(frame.data()) + offset;
      iov[iov_count].iov_len = frame.size() - offset;
      batched += iov[iov_count].iov_len;
      ++iov_count;
    }
    struct msghdr msg;
    std::memset(&msg, 0, sizeof(msg));
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iov_count);
    const ssize_t n = ::sendmsg(sock.fd(), &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
      return ErrnoStatus("sendmsg");
    }
    pending_bytes_ -= static_cast<size_t>(n);
    bytes_sent_ += static_cast<uint64_t>(n);
    size_t sent = static_cast<size_t>(n);
    while (sent > 0) {
      const size_t front_left = queue_.front().size() - front_offset_;
      if (sent >= front_left) {
        sent -= front_left;
        queue_.pop_front();
        front_offset_ = 0;
      } else {
        front_offset_ += sent;
        sent = 0;
      }
    }
    if (static_cast<size_t>(n) < batched) return false;  // kernel buffer full
  }
  return true;
}

}  // namespace privhp
