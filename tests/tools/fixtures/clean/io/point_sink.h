// PHL007 clean mirror: PointBatch is the only batch type; single points
// and non-batch helpers may still use Point and std::vector<Point>.
// AddAll(const std::vector<Point>&) in a comment is not a declaration.
#include <cstddef>
#include <vector>

namespace privhp {

class PointSink {
 public:
  virtual Status Add(const Point& x) = 0;
  virtual Status AddAll(const PointBatch& batch);
};

class PointSource {
 public:
  virtual Result<bool> Next(Point* out) = 0;
  virtual Result<size_t> NextBatch(size_t max_points, PointBatch* out);
};

class Domain {
 public:
  virtual Status ValidateBatch(const double* flat, int dim,
                               size_t count) const;
};

Status WritePointsCsv(const std::string& path,
                      const std::vector<Point>& points);

inline Status AddVector(PointSink* sink, const std::vector<Point>& points) {
  return sink->AddAll(PointBatch::FromPoints(points));
}

}  // namespace privhp
