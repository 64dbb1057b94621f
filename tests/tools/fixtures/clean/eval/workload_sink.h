// PHL007 clean mirror: outside the ingest layers (io, domain, core),
// Point-vector batch forms are allowed.
#include <vector>

namespace privhp {

class WorkloadSink {
 public:
  Status AddBatch(const std::vector<Point>& points);
};

}  // namespace privhp
