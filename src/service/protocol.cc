#include "service/protocol.h"

#include <string>

#include "common/macros.h"

namespace privhp {

namespace {

void PutOpAndName(WireWriter* w, ServiceOp op, const std::string& artifact) {
  w->PutU8(static_cast<uint8_t>(op));
  w->PutString(artifact);
}

}  // namespace

std::string EncodePingRequest() {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(ServiceOp::kPing));
  return w.Take();
}

std::string EncodeListRequest() {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(ServiceOp::kList));
  return w.Take();
}

std::string EncodeSampleRequest(const std::string& artifact, uint64_t m,
                                uint64_t seed) {
  WireWriter w;
  PutOpAndName(&w, ServiceOp::kSample, artifact);
  w.PutU64(m);
  w.PutU64(seed);
  return w.Take();
}

std::string EncodeRangeRequest(const std::string& artifact, uint32_t level,
                               uint64_t index) {
  WireWriter w;
  PutOpAndName(&w, ServiceOp::kRange, artifact);
  w.PutU32(level);
  w.PutU64(index);
  return w.Take();
}

std::string EncodeQuantileRequest(const std::string& artifact,
                                  const std::vector<double>& qs) {
  WireWriter w;
  PutOpAndName(&w, ServiceOp::kQuantile, artifact);
  w.PutU32(static_cast<uint32_t>(qs.size()));
  for (double q : qs) w.PutDouble(q);
  return w.Take();
}

std::string EncodeHeavyRequest(const std::string& artifact,
                               double threshold) {
  WireWriter w;
  PutOpAndName(&w, ServiceOp::kHeavy, artifact);
  w.PutDouble(threshold);
  return w.Take();
}

std::string EncodeExportRequest(const std::string& artifact) {
  WireWriter w;
  PutOpAndName(&w, ServiceOp::kExport, artifact);
  return w.Take();
}

std::string EncodeStatsRequest() {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(ServiceOp::kStats));
  return w.Take();
}

std::string EncodeIngestRequest(const ServiceRequest& spec) {
  WireWriter w;
  PutOpAndName(&w, ServiceOp::kIngest, spec.artifact);
  w.PutU32(spec.dim);
  w.PutDouble(spec.epsilon);
  w.PutU64(spec.k);
  w.PutU64(spec.n);
  w.PutU64(spec.seed);
  w.PutU32(spec.threads);
  return w.Take();
}

std::string EncodeAuthRequest(const std::string& token) {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(ServiceOp::kAuth));
  w.PutString(token);
  return w.Take();
}

Result<ServiceRequest> ParseRequest(const std::string& frame) {
  WireReader r(frame);
  ServiceRequest req;
  PRIVHP_ASSIGN_OR_RETURN(uint8_t op, r.U8());
  switch (op) {
    case static_cast<uint8_t>(ServiceOp::kPing):
    case static_cast<uint8_t>(ServiceOp::kList):
    case static_cast<uint8_t>(ServiceOp::kStats):
      req.op = static_cast<ServiceOp>(op);
      PRIVHP_RETURN_NOT_OK(r.ExpectEnd());
      return req;
    case static_cast<uint8_t>(ServiceOp::kAuth): {
      req.op = ServiceOp::kAuth;
      PRIVHP_ASSIGN_OR_RETURN(req.token, r.String());
      PRIVHP_RETURN_NOT_OK(r.ExpectEnd());
      return req;
    }
    case static_cast<uint8_t>(ServiceOp::kSample):
    case static_cast<uint8_t>(ServiceOp::kRange):
    case static_cast<uint8_t>(ServiceOp::kQuantile):
    case static_cast<uint8_t>(ServiceOp::kHeavy):
    case static_cast<uint8_t>(ServiceOp::kExport):
    case static_cast<uint8_t>(ServiceOp::kIngest):
      req.op = static_cast<ServiceOp>(op);
      break;
    default:
      return Status::InvalidArgument("unknown opcode " + std::to_string(op));
  }
  PRIVHP_ASSIGN_OR_RETURN(req.artifact, r.String());
  switch (req.op) {
    case ServiceOp::kSample: {
      PRIVHP_ASSIGN_OR_RETURN(req.m, r.U64());
      PRIVHP_ASSIGN_OR_RETURN(req.seed, r.U64());
      break;
    }
    case ServiceOp::kRange: {
      PRIVHP_ASSIGN_OR_RETURN(req.level, r.U32());
      PRIVHP_ASSIGN_OR_RETURN(req.index, r.U64());
      break;
    }
    case ServiceOp::kQuantile: {
      // 8 bytes per quantile double.
      PRIVHP_ASSIGN_OR_RETURN(uint32_t count, r.BoundedCount(8));
      req.qs.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        PRIVHP_ASSIGN_OR_RETURN(double q, r.Double());
        req.qs.push_back(q);
      }
      break;
    }
    case ServiceOp::kHeavy: {
      PRIVHP_ASSIGN_OR_RETURN(req.threshold, r.Double());
      break;
    }
    case ServiceOp::kExport:
      break;
    case ServiceOp::kIngest: {
      PRIVHP_ASSIGN_OR_RETURN(req.dim, r.U32());
      PRIVHP_ASSIGN_OR_RETURN(req.epsilon, r.Double());
      PRIVHP_ASSIGN_OR_RETURN(req.k, r.U64());
      PRIVHP_ASSIGN_OR_RETURN(req.n, r.U64());
      PRIVHP_ASSIGN_OR_RETURN(req.seed, r.U64());
      PRIVHP_ASSIGN_OR_RETURN(req.threads, r.U32());
      break;
    }
    default:
      break;
  }
  PRIVHP_RETURN_NOT_OK(r.ExpectEnd());
  return req;
}

std::string EncodeErrorResponse(const Status& status) {
  PRIVHP_DCHECK(!status.ok());
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.PutString(status.message());
  return w.Take();
}

WireWriter BeginOkResponse() {
  WireWriter w;
  w.PutU8(0);
  return w;
}

Status ParseResponse(const std::string& frame, WireReader* payload) {
  WireReader r(frame);
  PRIVHP_ASSIGN_OR_RETURN(uint8_t code, r.U8());
  if (code != 0) {
    if (code > static_cast<uint8_t>(kLastStatusCode)) {
      return Status::IOError("malformed response: unknown status code " +
                             std::to_string(code));
    }
    PRIVHP_ASSIGN_OR_RETURN(std::string message, r.String());
    return Status(static_cast<StatusCode>(code), std::move(message));
  }
  *payload = r;
  return Status::OK();
}

void EncodeStatsSnapshot(const obs::MetricsSnapshot& snapshot,
                         WireWriter* w) {
  w->PutU32(kStatsSnapshotVersion);
  w->PutU32(static_cast<uint32_t>(snapshot.counters.size()));
  for (const auto& c : snapshot.counters) {
    w->PutString(c.name);
    w->PutU64(c.value);
  }
  w->PutU32(static_cast<uint32_t>(snapshot.gauges.size()));
  for (const auto& g : snapshot.gauges) {
    w->PutString(g.name);
    w->PutU64(static_cast<uint64_t>(g.value));
  }
  w->PutU32(static_cast<uint32_t>(snapshot.histograms.size()));
  for (const auto& h : snapshot.histograms) {
    w->PutString(h.name);
    w->PutU64(h.hist.sum);
    w->PutU64(h.hist.max);
    uint32_t nonzero = 0;
    for (uint64_t b : h.hist.buckets) nonzero += b != 0;
    w->PutU32(nonzero);
    for (uint32_t i = 0; i < obs::kHistogramBuckets; ++i) {
      if (h.hist.buckets[i] == 0) continue;
      w->PutU32(i);
      w->PutU64(h.hist.buckets[i]);
    }
  }
}

Result<obs::MetricsSnapshot> DecodeStatsSnapshot(WireReader* payload) {
  PRIVHP_ASSIGN_OR_RETURN(const uint32_t version, payload->U32());
  if (version != kStatsSnapshotVersion) {
    return Status::InvalidArgument(
        "unsupported STATS snapshot version " + std::to_string(version) +
        " (this client speaks version " +
        std::to_string(kStatsSnapshotVersion) + ")");
  }
  obs::MetricsSnapshot snapshot;
  // A counter entry is at least a 4-byte name length + an 8-byte value.
  PRIVHP_ASSIGN_OR_RETURN(const uint32_t n_counters,
                          payload->BoundedCount(12));
  snapshot.counters.reserve(n_counters);
  for (uint32_t i = 0; i < n_counters; ++i) {
    obs::MetricsSnapshot::CounterValue c;
    PRIVHP_ASSIGN_OR_RETURN(c.name, payload->String());
    PRIVHP_ASSIGN_OR_RETURN(c.value, payload->U64());
    snapshot.counters.push_back(std::move(c));
  }
  PRIVHP_ASSIGN_OR_RETURN(const uint32_t n_gauges, payload->BoundedCount(12));
  snapshot.gauges.reserve(n_gauges);
  for (uint32_t i = 0; i < n_gauges; ++i) {
    obs::MetricsSnapshot::GaugeValue g;
    PRIVHP_ASSIGN_OR_RETURN(g.name, payload->String());
    PRIVHP_ASSIGN_OR_RETURN(const uint64_t raw, payload->U64());
    g.value = static_cast<int64_t>(raw);
    snapshot.gauges.push_back(std::move(g));
  }
  // A histogram entry is at least name length + sum + max + bucket count.
  PRIVHP_ASSIGN_OR_RETURN(const uint32_t n_hists, payload->BoundedCount(24));
  snapshot.histograms.reserve(n_hists);
  for (uint32_t i = 0; i < n_hists; ++i) {
    obs::MetricsSnapshot::HistogramValue h;
    PRIVHP_ASSIGN_OR_RETURN(h.name, payload->String());
    PRIVHP_ASSIGN_OR_RETURN(h.hist.sum, payload->U64());
    PRIVHP_ASSIGN_OR_RETURN(h.hist.max, payload->U64());
    // Sparse bucket entries: u32 index + u64 count each. The index lands
    // in a fixed array, so validate it against the scheme the version
    // byte promised — never index from an unchecked wire value.
    PRIVHP_ASSIGN_OR_RETURN(const uint32_t n_buckets,
                            payload->BoundedCount(12));
    for (uint32_t b = 0; b < n_buckets; ++b) {
      PRIVHP_ASSIGN_OR_RETURN(const uint32_t index, payload->U32());
      PRIVHP_ASSIGN_OR_RETURN(const uint64_t count, payload->U64());
      if (index >= obs::kHistogramBuckets) {
        return Status::IOError("STATS histogram bucket index " +
                               std::to_string(index) +
                               " outside the version-1 bucket array");
      }
      h.hist.buckets[index] += count;
    }
    snapshot.histograms.push_back(std::move(h));
  }
  return snapshot;
}

}  // namespace privhp
