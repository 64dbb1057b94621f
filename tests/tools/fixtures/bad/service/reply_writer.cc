// PHL009 fixture: socket I/O outside io/frame_socket.cc.
#include <sys/socket.h>
#include <sys/uio.h>

namespace privhp {

void WriteReply(int fd, const char* data, size_t size, msghdr* msg,
                iovec* iov) {
  (void)::send(fd, data, size, MSG_NOSIGNAL);  // PHL009
  (void)::sendmsg(fd, msg, MSG_NOSIGNAL);  // PHL009
  (void)::writev(fd, iov, 2);  // PHL009
}

void ReadRequest(int fd, char* data, size_t size, msghdr* msg,
                 iovec* iov) {
  (void)::recv(fd, data, size, 0);  // PHL009
  (void)::
      recvmsg(fd, msg, 0);  // PHL009, split over two lines
  (void)::readv(fd, iov, 2);  // PHL009
}

// Comments and strings may say ::send( or ::recv(.
const char* kNote = "::sendmsg(fd, msg, 0)";

}  // namespace privhp
