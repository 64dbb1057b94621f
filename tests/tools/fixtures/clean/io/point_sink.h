// PHL007 clean mirror: PointBatch is the only batch type and the
// interfaces move points in batches; single points and non-batch
// helpers may still use Point and std::vector<Point>.
// AddAll(const std::vector<Point>&) and Next(Point* out) override in a
// comment are not declarations.
#include <cstddef>
#include <vector>

namespace privhp {

class PointSink {
 public:
  virtual Status AddAll(const PointBatch& batch) = 0;

 protected:
  virtual Status Add(const Point&) { return Status::NotImplemented(""); }
};

class PointSource {
 public:
  virtual Result<size_t> NextBatch(size_t max_points, PointBatch* out) = 0;

 protected:
  virtual Result<bool> Next(Point*) { return Status::NotImplemented(""); }
};

class PrivHPShard : public PointSink {
 public:
  Status Add(const Point& x) override;
  Status AddAll(const PointBatch& batch) override;
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
