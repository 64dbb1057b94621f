// Columnar point storage: one contiguous arena for a whole batch.
//
// Point = std::vector<double> is the right currency for single points,
// but a hot loop over std::vector<Point> pays one heap allocation and
// one pointer chase per point. PointBatch stores a batch as a single
// row-major (point-major) double arena — point i occupies
// data()[i*dim .. i*dim+dim) — which
//
//   * makes appending a point a bounds-checked copy of `dim` doubles
//     (zero per-point allocation once capacity is reserved),
//   * matches the wire point-batch frame layout exactly, so encode and
//     decode are one bounds-checked memcpy on little-endian hosts, and
//   * exposes the flat array the SIMD kernels (common/simd.h) need:
//     coordinate j of the arena belongs to point j/dim, coordinate
//     j%dim, so per-coordinate patterns tile with period dim.
//
// PointBatch is the only batch currency of the ingest and sampling
// paths (PointSource::NextBatch, PointSink::AddAll,
// PrivHPShard::AddBatch, CompiledSampler::SampleTo). Code that holds a
// std::vector<Point> (workload generators, W1) converts through
// FromPoints/ToPoints.

#ifndef PRIVHP_DOMAIN_POINT_BATCH_H_
#define PRIVHP_DOMAIN_POINT_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace privhp {

/// \brief A point in the input domain. Coordinate count equals
/// Domain::dimension().
using Point = std::vector<double>;

/// \brief A batch of equal-dimension points in one contiguous arena.
class PointBatch {
 public:
  PointBatch() = default;
  /// \brief Empty batch of \p dim-coordinate points (dim >= 1).
  explicit PointBatch(int dim) { Reset(dim); }

  /// \brief Clears and sets the dimension; capacity is kept, so a reused
  /// batch allocates only on growth.
  void Reset(int dim);

  /// \brief Clears the points, keeping dimension and capacity.
  void Clear() { data_.clear(); }

  /// \brief Reserves room for \p points points.
  void Reserve(size_t points) { data_.reserve(points * Stride()); }

  int dim() const { return dim_; }
  size_t size() const { return dim_ == 0 ? 0 : data_.size() / Stride(); }
  bool empty() const { return data_.empty(); }

  /// \brief Appends one uninitialized point and returns its row (valid
  /// until the next append).
  double* AppendRow();

  /// \brief Appends \p count uninitialized points and returns the first
  /// new row (valid until the next append). The wire decode path and
  /// the sampler write coordinates straight into the returned block.
  double* AppendRows(size_t count);

  /// \brief Appends \p count points from a flat row-major array of
  /// count*dim doubles.
  void AppendFlat(const double* flat, size_t count);

  /// \brief Appends a copy of \p p (p.size() must equal dim(); checked,
  /// aborts otherwise).
  void AppendPoint(const Point& p);

  /// \brief Appends every point of \p points.
  void AppendPoints(const std::vector<Point>& points);

  /// \brief Row of point \p i: `dim()` contiguous coordinates.
  const double* row(size_t i) const { return data_.data() + i * Stride(); }
  double* row(size_t i) { return data_.data() + i * Stride(); }

  /// \brief The whole arena (size() * dim() doubles, row-major).
  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }

  /// \brief Materializes point \p i as a Point.
  Point At(size_t i) const;

  /// \brief Appends all points to \p out as Points.
  void CopyTo(std::vector<Point>* out) const;

  /// \brief The batch as a vector of Points (compatibility currency).
  std::vector<Point> ToPoints() const;

  /// \brief Builds a batch from equal-dimension points. \p dim resolves
  /// an empty input's dimension; when < 0 it is taken from the first
  /// point (0 if none).
  static PointBatch FromPoints(const std::vector<Point>& points,
                               int dim = -1);

  /// \brief Bytes held by the arena (capacity, not size).
  size_t MemoryBytes() const {
    return sizeof(*this) + data_.capacity() * sizeof(double);
  }

  friend bool operator==(const PointBatch& a, const PointBatch& b) {
    return a.dim_ == b.dim_ && a.data_ == b.data_;
  }
  friend bool operator!=(const PointBatch& a, const PointBatch& b) {
    return !(a == b);
  }

 private:
  size_t Stride() const { return static_cast<size_t>(dim_); }

  int dim_ = 0;
  std::vector<double> data_;  // size() * dim_, row-major
};

}  // namespace privhp

#endif  // PRIVHP_DOMAIN_POINT_BATCH_H_
