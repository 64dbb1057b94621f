// PHL005 scope: obs/ records what it is handed; no stream reads here.
#include "obs/metrics_registry.h"

namespace privhp {
namespace obs {

void RecordRequest(Histogram* bytes_in, size_t frame_bytes) {
  bytes_in->Record(frame_bytes);
}

}  // namespace obs
}  // namespace privhp
