// PHL007 fixture: definitions of Point-array batch forms in an ingest
// layer.
#include <vector>

namespace privhp {

Status PrivHPShard::AddBatch(const Point* points, size_t count) {  // PHL007
  return AddBatch(PointBatch::FromPoints({points, points + count}));
}

Status PrivHPShard::AddRange(const std::vector<Point>& points,  // PHL007
                             size_t begin, size_t end) {
  return Status::OK();
}

}  // namespace privhp
