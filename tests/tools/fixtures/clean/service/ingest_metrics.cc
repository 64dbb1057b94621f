// PHL005 clean mirror: the stream length is read, but no metric sees it.
#include "service/server.h"

namespace privhp {

void RecordIngest(ServiceMetrics* metrics_, RequestScope* scope,
                  const SocketPointSource& source, size_t frame_bytes,
                  Connection* conn) {
  // The request frame alone is what op.ingest.bytes_in records.
  scope->bytes_in = frame_bytes;
  metrics_->ingests_published->Inc();
  // A client checks its own count; the reactor tracks activity.
  if (source.num_received() != conn->expected) conn->Fail();
  const uint64_t received = conn->reader.bytes_received();
  if (received != conn->last_bytes_received) {
    conn->last_bytes_received = received;
  }
}

}  // namespace privhp
