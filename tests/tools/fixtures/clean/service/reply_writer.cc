// PHL009 clean mirror: the server writes through FrameWriter and reads
// through FrameReader; ::write on an eventfd is not socket I/O.
#include <unistd.h>

#include "io/frame_socket.h"

namespace privhp {

Result<bool> WriteReply(FrameWriter* writer, const Socket& sock) {
  return writer->Pump(sock);
}

void Wake(int event_fd) {
  const uint64_t one = 1;
  (void)!::write(event_fd, &one, sizeof(one));
}

// Member calls named like the syscalls are not the syscalls.
struct Channel {
  int send(int n) { return n; }
};
int Forward(Channel* channel) { return channel->send(1) + Channel().send(2); }

}  // namespace privhp
