// PHL005 fixture: an INGEST handler exporting its stream's length.
#include "service/server.h"

namespace privhp {

void RecordIngest(ServiceMetrics* metrics_, RequestScope* scope,
                  const SocketPointSource& source) {
  metrics_->ingest_points->Add(
      static_cast<int64_t>(source.num_received()));  // PHL005
  scope->bytes_in += source.bytes_received();  // PHL005
  const uint64_t frames = source.num_batches();
  scope->ep->latency_ns->Record(frames);  // PHL005
  // metrics_->ingest_points->Add(source.num_received()) in a comment is
  // fine, and so is a string: "bytes_in += bytes_received()".
  const char* note = "metrics_ num_processed()";
  (void)note;
}

}  // namespace privhp
