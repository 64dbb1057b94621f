// Frame I/O for test peers that talk to a socket directly.
//
// Tests that hand-drive a connection (a raw peer of the server, the two
// ends of a point stream) read and write through the same FrameReader /
// FrameWriter as the client and the server's reactor; these helpers wait
// where those state machines would park, so they work on blocking and
// non-blocking sockets alike.

#ifndef PRIVHP_TESTS_TESTING_FRAMES_H_
#define PRIVHP_TESTS_TESTING_FRAMES_H_

#include <poll.h>

#include <memory>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/status.h"
#include "io/frame_socket.h"
#include "io/socket_point_stream.h"

namespace privhp {
namespace testing {

/// \brief Waits until \p sock is readable (\p events POLLIN) or writable
/// (POLLOUT).
inline void WaitUntilReady(const Socket& sock, short events) {
  struct pollfd pfd;
  pfd.fd = sock.fd();
  pfd.events = events;
  pfd.revents = 0;
  (void)::poll(&pfd, 1, -1);
}

/// \brief Writes one whole frame through a fresh FrameWriter.
inline Status WriteFrame(const Socket& sock, std::string payload) {
  FrameWriter writer;
  PRIVHP_RETURN_NOT_OK(writer.Enqueue(std::move(payload)));
  for (;;) {
    PRIVHP_ASSIGN_OR_RETURN(bool drained, writer.Pump(sock));
    if (drained) return Status::OK();
    WaitUntilReady(sock, POLLOUT);
  }
}

/// \brief Reads the next frame into \p payload through \p reader, which
/// must be the only reader of \p sock (it over-reads). False on clean
/// EOF at a frame boundary.
inline Result<bool> ReadFrame(const Socket& sock, FrameReader* reader,
                              std::string* payload) {
  for (;;) {
    PRIVHP_ASSIGN_OR_RETURN(FrameReader::Event event, reader->Poll(sock));
    if (event == FrameReader::Event::kEof) return false;
    if (event == FrameReader::Event::kFrame) {
      *payload = std::move(reader->frame());
      return true;
    }
    WaitUntilReady(sock, POLLIN);
  }
}

/// \brief A point-stream transport writing frames to \p sock.
inline FrameSendFn SocketSender(const Socket* sock) {
  return [sock](std::string payload) {
    return WriteFrame(*sock, std::move(payload));
  };
}

/// \brief A point-stream transport reading frames from \p sock through
/// one reader of its own.
inline FrameRecvFn SocketReceiver(const Socket* sock) {
  auto reader = std::make_shared<FrameReader>();
  return [sock, reader](std::string* payload) {
    return ReadFrame(*sock, reader.get(), payload);
  };
}

}  // namespace testing
}  // namespace privhp

#endif  // PRIVHP_TESTS_TESTING_FRAMES_H_
