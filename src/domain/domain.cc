#include "domain/domain.h"

#include "common/macros.h"

namespace privhp {

Status Domain::ValidatePoint(const Point& x) const {
  if (static_cast<int>(x.size()) != dimension()) {
    return Status::InvalidArgument(
        "point has " + std::to_string(x.size()) + " coordinates, domain '" +
        Name() + "' expects " + std::to_string(dimension()));
  }
  if (!Contains(x)) {
    return Status::OutOfRange("point lies outside domain '" + Name() + "'");
  }
  return Status::OK();
}

Status Domain::ValidateBatch(const double* flat, int dim,
                             size_t count) const {
  if (count == 0) return Status::OK();
  // One scratch point reused across rows; ValidatePoint supplies the
  // exact per-point status text.
  Point x(static_cast<size_t>(dim));
  for (size_t i = 0; i < count; ++i) {
    const double* row = flat + i * static_cast<size_t>(dim);
    x.assign(row, row + dim);
    const Status valid = ValidatePoint(x);
    if (!valid.ok()) {
      return Status(valid.code(), "batch point " + std::to_string(i) +
                                      ": " + valid.message());
    }
  }
  return Status::OK();
}

bool Domain::CellBoundsFor(int level, uint64_t index, double* lo,
                           double* hi) const {
  (void)level;
  (void)index;
  (void)lo;
  (void)hi;
  return false;
}

bool Domain::CellBoundsBatch(const CellId* cells, size_t count, double* lo,
                             double* hi) const {
  const size_t d = static_cast<size_t>(dimension());
  for (size_t s = 0; s < count; ++s) {
    if (!CellBoundsFor(cells[s].level, cells[s].index, lo + s * d,
                       hi + s * d)) {
      return false;
    }
  }
  return true;
}

Point Domain::CellCenter(int level, uint64_t index) const {
  RandomEngine rng(0x9e3779b97f4a7c15ULL ^ (index * 2654435761u + level));
  constexpr int kDraws = 32;
  Point acc;
  for (int i = 0; i < kDraws; ++i) {
    Point p = SampleCell(level, index, &rng);
    if (acc.empty()) {
      acc = std::move(p);
    } else {
      for (size_t c = 0; c < acc.size(); ++c) acc[c] += p[c];
    }
  }
  for (double& c : acc) c /= kDraws;
  return acc;
}

void Domain::LocatePath(const Point& x, int max,
                        std::vector<uint64_t>* out) const {
  PRIVHP_DCHECK(max <= max_level());
  out->resize(max + 1);
  const uint64_t deepest = Locate(x, max);
  for (int l = 0; l <= max; ++l) (*out)[l] = deepest >> (max - l);
}

void Domain::LocateBatch(const double* flat, int dim, size_t count,
                         int level, uint64_t* out) const {
  PRIVHP_DCHECK(level <= max_level());
  PRIVHP_DCHECK(dim == dimension());
  Point x(static_cast<size_t>(dim));
  for (size_t i = 0; i < count; ++i) {
    const double* row = flat + i * static_cast<size_t>(dim);
    x.assign(row, row + dim);
    out[i] = Locate(x, level);
  }
}

void Domain::LocatePathBatch(const double* flat, int dim, size_t count,
                             int max, uint64_t* out) const {
  uint64_t* leaves = out + static_cast<size_t>(max) * count;
  LocateBatch(flat, dim, count, max, leaves);
  for (int l = 0; l < max; ++l) {
    uint64_t* row = out + static_cast<size_t>(l) * count;
    for (size_t i = 0; i < count; ++i) row[i] = leaves[i] >> (max - l);
  }
}

}  // namespace privhp
