// PHL007 fixture: Point-vector and Point-array batch forms in an ingest
// layer, next to the PointBatch forms that are allowed.
#include <cstddef>
#include <vector>

namespace privhp {

class PointSink {
 public:
  virtual Status Add(const Point& x) = 0;
  virtual Status AddAll(const std::vector<Point>& points);  // PHL007
  virtual Status AddAll(const PointBatch& batch);
};

class PointSource {
 public:
  virtual Result<size_t> NextBatch(size_t max_points,
                                   std::vector<Point>* out);  // PHL007
  virtual Result<size_t> NextBatch(size_t max_points, PointBatch* out);
};

class Domain {
 public:
  virtual Status ValidateBatch(const Point* points,  // PHL007
                               size_t count) const;
  virtual Status ValidateBatch(const double* flat, int dim,
                               size_t count) const;
};

}  // namespace privhp
