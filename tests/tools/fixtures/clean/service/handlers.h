// PHL008 clean mirror: handlers take the request and what it reads.
#ifndef PRIVHP_SERVICE_HANDLERS_H_
#define PRIVHP_SERVICE_HANDLERS_H_

#include "service/artifact_registry.h"
#include "service/protocol.h"

namespace privhp {

Result<std::string> HandleList(const ArtifactRegistry& registry);

}  // namespace privhp

#endif  // PRIVHP_SERVICE_HANDLERS_H_
