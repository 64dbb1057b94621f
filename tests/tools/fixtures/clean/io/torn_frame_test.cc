// PHL009 exempts tests: they hand-craft bytes no frame writer would
// send, such as a header with no payload behind it.
#include <sys/socket.h>

namespace privhp {

void SendTornHeader(int fd) {
  const char header[4] = {8, 0, 0, 0};
  (void)::send(fd, header, sizeof(header), 0);
}

}  // namespace privhp
