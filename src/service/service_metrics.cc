#include "service/service_metrics.h"

#include <string>

#include "common/macros.h"

namespace privhp {

namespace {

constexpr ServiceOp kOpOrder[kStatsNumOps] = {
    ServiceOp::kPing,  ServiceOp::kList,   ServiceOp::kSample,
    ServiceOp::kRange, ServiceOp::kQuantile, ServiceOp::kHeavy,
    ServiceOp::kExport, ServiceOp::kStats, ServiceOp::kAuth,
    ServiceOp::kIngest,
};

}  // namespace

const char* ServiceOpName(ServiceOp op) {
  switch (op) {
    case ServiceOp::kPing:
      return "ping";
    case ServiceOp::kList:
      return "list";
    case ServiceOp::kSample:
      return "sample";
    case ServiceOp::kRange:
      return "range";
    case ServiceOp::kQuantile:
      return "quantile";
    case ServiceOp::kHeavy:
      return "heavy";
    case ServiceOp::kExport:
      return "export";
    case ServiceOp::kStats:
      return "stats";
    case ServiceOp::kAuth:
      return "auth";
    case ServiceOp::kIngest:
      return "ingest";
  }
  return "unknown";
}

int ServiceOpIndex(ServiceOp op) {
  for (int i = 0; i < kStatsNumOps; ++i) {
    if (kOpOrder[i] == op) return i;
  }
  PRIVHP_CHECK(false);
  return 0;
}

ServiceOp ServiceOpAt(int index) {
  PRIVHP_DCHECK(index >= 0 && index < kStatsNumOps);
  return kOpOrder[index];
}

ServiceMetrics::ServiceMetrics(obs::MetricsRegistry* registry) {
  for (int i = 0; i < kStatsNumOps; ++i) {
    const std::string prefix =
        std::string("op.") + ServiceOpName(kOpOrder[i]) + ".";
    ops_[i].requests = registry->GetCounter(prefix + "requests");
    ops_[i].errors = registry->GetCounter(prefix + "errors");
    ops_[i].latency_ns = registry->GetHistogram(prefix + "latency_ns");
    ops_[i].bytes_in = registry->GetHistogram(prefix + "bytes_in");
    ops_[i].bytes_out = registry->GetHistogram(prefix + "bytes_out");
  }
  connections = registry->GetCounter("server.connections");
  requests = registry->GetCounter("server.requests");
  errors = registry->GetCounter("server.errors");
  replies_written_by_worker =
      registry->GetCounter("server.replies_written_by_worker");
  ingests_published = registry->GetCounter("server.ingests_published");
  listener_failure_streaks =
      registry->GetCounter("server.listener_failure_streaks");
  queue_wait_ns = registry->GetHistogram("server.queue_wait_ns");
  queue_depth = registry->GetGauge("server.queue_depth");
  workers_busy = registry->GetGauge("server.workers_busy");
  workers_total = registry->GetGauge("server.workers_total");
  connections_open = registry->GetGauge("server.connections_open");
  dropped_idle = registry->GetCounter("server.connections_dropped.idle");
  dropped_backpressure =
      registry->GetCounter("server.connections_dropped.backpressure");
  dropped_auth = registry->GetCounter("server.connections_dropped.auth");
  output_queue_bytes = registry->GetGauge("server.output_queue_bytes");
  sample_points = registry->GetCounter("sample.points");
}

}  // namespace privhp
