// PHL007 fixture: the per-point stream surface in an ingest layer —
// a Next(Point*) override, a pure one, an out-of-class definition and
// Add(Point&&) — next to the forms that are allowed.
#include <cstddef>

namespace privhp {

class PointSource {
 public:
  virtual Result<bool> Next(Point* out) = 0;  // PHL007
  virtual Result<size_t> NextBatch(size_t max_points, PointBatch* out) = 0;
};

class SocketPointSource : public PointSource {
 public:
  Result<bool> Next(Point* out) override;  // PHL007
  Result<size_t> NextBatch(size_t max_points, PointBatch* out) override;
};

Result<bool> SocketPointSource::Next(  // PHL007
    Point* out) {
  return false;
}

class SocketPointSink : public PointSink {
 public:
  Status Add(Point&& x);  // PHL007
  Status AddAll(const PointBatch& batch) override;
};

}  // namespace privhp
