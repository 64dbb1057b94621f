#include "io/frame_socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
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

Status ErrnoStatus(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return ErrnoStatus("fcntl(F_GETFL)");
  if ((flags & O_NONBLOCK) == 0 &&
      ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
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
  // epoll_wait() and accept() (async network error, linger-0 reset), and
  // a blocking accept() would then stall the reactor.
  PRIVHP_RETURN_NOT_OK(SetNonBlocking(sock.fd()));
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
  PRIVHP_RETURN_NOT_OK(SetNonBlocking(sock.fd()));  // see ListenTcp
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
      PRIVHP_RETURN_NOT_OK(SetNonBlocking(fd));
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

Result<std::pair<Socket, Socket>> SocketPair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) < 0) {
    return ErrnoStatus("socketpair");
  }
  return std::make_pair(Socket(fds[0]), Socket(fds[1]));
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
  Frame frame;
  const uint32_t size = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    frame.header[i] = static_cast<char>((size >> (8 * i)) & 0xff);
  }
  frame.payload = std::move(payload);
  pending_bytes_ += sizeof(frame.header) + frame.payload.size();
  queue_.push_back(std::move(frame));
  return Status::OK();
}

Result<bool> FrameWriter::Pump(const Socket& sock) {
  constexpr size_t kMaxFramesPerSend = 64;
  if (!sock.valid()) {
    return Status::InvalidArgument("send on an invalid socket");
  }
  while (!queue_.empty()) {
    // Gather as many queued frames as fit into one vectored send, each
    // as its header and its payload: pipelined responses are tiny, and
    // one sendmsg per flush instead of one send per frame is most of the
    // reactor's write-side cost. The front frame skips what already went.
    struct iovec iov[2 * kMaxFramesPerSend];
    size_t iov_count = 0;
    size_t frames = 0;
    size_t batched = 0;
    for (const Frame& frame : queue_) {
      if (frames == kMaxFramesPerSend) break;
      size_t skip = frames == 0 ? front_offset_ : 0;
      if (skip < sizeof(frame.header)) {
        iov[iov_count].iov_base = const_cast<char*>(frame.header) + skip;
        iov[iov_count].iov_len = sizeof(frame.header) - skip;
        batched += iov[iov_count++].iov_len;
        skip = 0;
      } else {
        skip -= sizeof(frame.header);
      }
      if (frame.payload.size() > skip) {
        iov[iov_count].iov_base =
            const_cast<char*>(frame.payload.data()) + skip;
        iov[iov_count].iov_len = frame.payload.size() - skip;
        batched += iov[iov_count++].iov_len;
      }
      ++frames;
    }
    struct msghdr msg;
    std::memset(&msg, 0, sizeof(msg));
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
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
      const Frame& front = queue_.front();
      const size_t front_left =
          sizeof(front.header) + front.payload.size() - front_offset_;
      if (sent >= front_left) {
        sent -= front_left;
        queue_.pop_front();
        front_offset_ = 0;
      } else {
        front_offset_ += sent;
        sent = 0;
      }
    }
    // Short: a non-blocking socket's buffer is full, or a signal cut a
    // blocking send short.
    if (static_cast<size_t>(n) < batched) return false;
  }
  return true;
}

}  // namespace privhp
