// PHL008 fixture: a request handler that reaches for the socket layer.
#include "service/handlers.h"

#include "io/frame_socket.h"  // PHL008
#include "service/event_loop.h"  // PHL008

namespace privhp {

Result<std::string> HandlePing(Connection* conn) {  // PHL008
  Socket* sock = conn->socket();  // PHL008
  (void)sock;
  return EnqueueFrame(conn, BeginOkResponse().Take());  // PHL008
}

// Comments and strings may say Connection or EnqueueFrame.
const char* kNote = "Socket";

}  // namespace privhp
