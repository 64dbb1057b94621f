// PHL009 covers every file but this one (and tests): the socket I/O
// seam itself.
#include <sys/socket.h>
#include <sys/uio.h>

namespace privhp {

void Seam(int fd, char* data, size_t size, msghdr* msg, iovec* iov) {
  (void)::send(fd, data, size, MSG_NOSIGNAL);
  (void)::sendmsg(fd, msg, MSG_NOSIGNAL);
  (void)::writev(fd, iov, 2);
  (void)::recv(fd, data, size, 0);
  (void)::recvmsg(fd, msg, 0);
  (void)::readv(fd, iov, 2);
}

}  // namespace privhp
