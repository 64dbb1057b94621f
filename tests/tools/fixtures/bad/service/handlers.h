// PHL008 fixture: a handler declaration that takes the connection.
#ifndef PRIVHP_SERVICE_HANDLERS_H_
#define PRIVHP_SERVICE_HANDLERS_H_

#include "service/event_loop.h"  // PHL008

namespace privhp {

Status HandleList(const std::shared_ptr<Connection>& conn);  // PHL008

}  // namespace privhp

#endif  // PRIVHP_SERVICE_HANDLERS_H_
