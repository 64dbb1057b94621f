#include "service/handlers.h"

#include <memory>
#include <vector>

#include "common/macros.h"
#include "core/queries.h"

namespace privhp {

Result<std::string> HandlePing() { return BeginOkResponse().Take(); }

Result<std::string> HandleList(const ArtifactRegistry& registry) {
  WireWriter w = BeginOkResponse();
  const std::vector<std::string> names = registry.List();
  w.PutU32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) w.PutString(name);
  return w.Take();
}

Result<std::string> HandleStats(const obs::MetricsSnapshot& snapshot) {
  WireWriter w = BeginOkResponse();
  EncodeStatsSnapshot(snapshot, &w);
  return w.Take();
}

Result<std::string> HandleAuth(const ServiceRequest& req,
                               const std::string& expected_token) {
  if (!expected_token.empty() && req.token != expected_token) {
    return Status::FailedPrecondition("authentication failed");
  }
  return BeginOkResponse().Take();
}

// The reads go through the representation-independent ServedArtifact
// query surface, so a heap-loaded tree, an mmapped paged file and a
// buffer-pooled paged file all answer with identical bytes.

Result<std::string> HandleRange(const ServiceRequest& req,
                                const ArtifactRegistry& registry) {
  PRIVHP_ASSIGN_OR_RETURN(std::shared_ptr<const ServedArtifact> artifact,
                          registry.Get(req.artifact));
  if (req.level > 62 || (req.index >> req.level) != 0) {
    return Status::InvalidArgument("cell index out of range for level " +
                                   std::to_string(req.level));
  }
  PRIVHP_ASSIGN_OR_RETURN(
      const double fraction,
      artifact->RangeMass(CellId{static_cast<int>(req.level), req.index}));
  WireWriter w = BeginOkResponse();
  w.PutDouble(fraction);
  return w.Take();
}

Result<std::string> HandleQuantile(const ServiceRequest& req,
                                   const ArtifactRegistry& registry) {
  PRIVHP_ASSIGN_OR_RETURN(std::shared_ptr<const ServedArtifact> artifact,
                          registry.Get(req.artifact));
  PRIVHP_ASSIGN_OR_RETURN(const std::vector<double> values,
                          artifact->Quantiles(req.qs));
  WireWriter w = BeginOkResponse();
  w.PutU32(static_cast<uint32_t>(values.size()));
  for (double v : values) w.PutDouble(v);
  return w.Take();
}

Result<std::string> HandleHeavy(const ServiceRequest& req,
                                const ArtifactRegistry& registry) {
  PRIVHP_ASSIGN_OR_RETURN(std::shared_ptr<const ServedArtifact> artifact,
                          registry.Get(req.artifact));
  PRIVHP_ASSIGN_OR_RETURN(const std::vector<HeavyCell> heavy,
                          artifact->Heavy(req.threshold));
  WireWriter w = BeginOkResponse();
  w.PutU32(static_cast<uint32_t>(heavy.size()));
  for (const HeavyCell& cell : heavy) {
    w.PutU32(static_cast<uint32_t>(cell.cell.level));
    w.PutU64(cell.cell.index);
    w.PutDouble(cell.fraction);
  }
  return w.Take();
}

}  // namespace privhp
