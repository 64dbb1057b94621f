// Socket-free answers for every service op that does not stream.
//
// Each handler takes the parsed request plus the registry, token or
// snapshot it reads, and returns the whole OK response frame (status
// byte plus payload) — or the error the worker encodes in its place.
// Nothing here knows about connections, queues or frames in flight, so
// every answer is testable in-process and the server's worker turns a
// result into a frame at exactly one site. SAMPLE, EXPORT and INGEST
// stream (and so stay in the server); their artifact reads go through
// the same ServedArtifact query surface these handlers use.

#ifndef PRIVHP_SERVICE_HANDLERS_H_
#define PRIVHP_SERVICE_HANDLERS_H_

#include <string>

#include "common/status.h"
#include "obs/metrics_registry.h"
#include "service/artifact_registry.h"
#include "service/protocol.h"

namespace privhp {

/// \brief PING -> OK.
Result<std::string> HandlePing();

/// \brief LIST -> OK [count:u32][name:string...], names sorted.
Result<std::string> HandleList(const ArtifactRegistry& registry);

/// \brief STATS -> OK + the encoded \p snapshot.
Result<std::string> HandleStats(const obs::MetricsSnapshot& snapshot);

/// \brief AUTH -> OK when \p expected_token is empty (no token
/// configured) or equals the request's token; FailedPrecondition
/// ("authentication failed") otherwise. The only place the server
/// compares a token.
Result<std::string> HandleAuth(const ServiceRequest& req,
                               const std::string& expected_token);

/// \brief RANGE -> OK [fraction:double]. After resolving the artifact,
/// rejects level > 62 and index >= 2^level.
Result<std::string> HandleRange(const ServiceRequest& req,
                                const ArtifactRegistry& registry);

/// \brief QUANTILE -> OK [count:u32][value:double...] (1-D artifacts).
Result<std::string> HandleQuantile(const ServiceRequest& req,
                                   const ArtifactRegistry& registry);

/// \brief HEAVY -> OK [count:u32][(level:u32,index:u64,frac:f64)...].
Result<std::string> HandleHeavy(const ServiceRequest& req,
                                const ArtifactRegistry& registry);

}  // namespace privhp

#endif  // PRIVHP_SERVICE_HANDLERS_H_
