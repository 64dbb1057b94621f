// PHL008 clean mirror: the handler returns its reply; the server's
// worker queues it on the Connection with EnqueueFrame.
#include "service/handlers.h"

#include "service/protocol.h"

namespace privhp {

Result<std::string> HandlePing() { return BeginOkResponse().Take(); }

const char* kNote = "Socket";

}  // namespace privhp
