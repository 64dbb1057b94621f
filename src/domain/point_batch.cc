#include "domain/point_batch.h"

#include <cstring>

#include "common/macros.h"

namespace privhp {

void PointBatch::Reset(int dim) {
  PRIVHP_CHECK(dim >= 1);
  dim_ = dim;
  data_.clear();
}

double* PointBatch::AppendRow() {
  PRIVHP_DCHECK(dim_ >= 1);
  data_.resize(data_.size() + Stride());
  return data_.data() + (data_.size() - Stride());
}

double* PointBatch::AppendRows(size_t count) {
  PRIVHP_DCHECK(dim_ >= 1);
  const size_t old = data_.size();
  data_.resize(old + count * Stride());
  return data_.data() + old;
}

void PointBatch::AppendFlat(const double* flat, size_t count) {
  PRIVHP_DCHECK(dim_ >= 1);
  if (count == 0) return;
  data_.insert(data_.end(), flat, flat + count * Stride());
}

void PointBatch::AppendPoint(const Point& p) {
  // Checked in every build: a point of the wrong arity would shift every
  // later row of the arena.
  PRIVHP_CHECK(static_cast<size_t>(dim_) == p.size());
  data_.insert(data_.end(), p.begin(), p.end());
}

void PointBatch::AppendPoints(const std::vector<Point>& points) {
  Reserve(size() + points.size());
  for (const Point& p : points) AppendPoint(p);
}

Point PointBatch::At(size_t i) const {
  PRIVHP_DCHECK(i < size());
  const double* r = row(i);
  return Point(r, r + Stride());
}

void PointBatch::CopyTo(std::vector<Point>* out) const {
  const size_t n = size();
  out->reserve(out->size() + n);
  for (size_t i = 0; i < n; ++i) out->push_back(At(i));
}

std::vector<Point> PointBatch::ToPoints() const {
  std::vector<Point> out;
  CopyTo(&out);
  return out;
}

PointBatch PointBatch::FromPoints(const std::vector<Point>& points, int dim) {
  if (dim < 0) {
    dim = points.empty() ? 0 : static_cast<int>(points.front().size());
  }
  PointBatch batch;
  if (dim >= 1) {
    batch.Reset(dim);
    batch.AppendPoints(points);
  }
  return batch;
}

}  // namespace privhp
