#include "domain/box_domain.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/bits.h"
#include "common/macros.h"
#include "common/simd.h"

namespace privhp {

BoxDomain::BoxDomain(std::string name, std::vector<double> lo,
                     std::vector<double> hi, int max_level)
    : name_(std::move(name)),
      lo_(std::move(lo)),
      hi_(std::move(hi)),
      max_level_(max_level) {
  PRIVHP_CHECK(!lo_.empty());
  PRIVHP_CHECK(lo_.size() == hi_.size());
  PRIVHP_CHECK(max_level_ >= 1 && max_level_ <= 62);
  for (size_t i = 0; i < lo_.size(); ++i) PRIVHP_CHECK(lo_[i] < hi_[i]);
  // Tile the bounds for the SIMD kernels: tile_ = lcm(d, 8) keeps the
  // per-coordinate pattern aligned with both the point grid and the
  // widest vector (see box_domain.h).
  const size_t d = lo_.size();
  tile_ = d * (8 / std::gcd(d, size_t{8}));
  lo_pat_.resize(tile_);
  hi_pat_.resize(tile_);
  ext_pat_.resize(tile_);
  for (size_t k = 0; k < tile_; ++k) {
    lo_pat_[k] = lo_[k % d];
    hi_pat_[k] = hi_[k % d];
    // The exact denominator Locate() divides by.
    ext_pat_[k] = hi_[k % d] - lo_[k % d];
  }
}

int BoxDomain::CutsForCoord(int level, int i) const {
  const int d = dimension();
  return level / d + ((level % d) > i ? 1 : 0);
}

bool BoxDomain::Contains(const Point& x) const {
  if (static_cast<int>(x.size()) != dimension()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (!(x[i] >= lo_[i] && x[i] <= hi_[i])) return false;
  }
  return true;
}

uint64_t BoxDomain::Locate(const Point& x, int level) const {
  PRIVHP_DCHECK(level >= 0 && level <= max_level_);
  PRIVHP_DCHECK(Contains(x));
  const int d = dimension();
  // Per-coordinate cell index after all of this level's cuts; the
  // interleaved level index is then read off one cut at a time.
  uint64_t coord_cell[64];
  int coord_cuts[64];
  PRIVHP_CHECK(d <= 64);
  for (int i = 0; i < d; ++i) {
    coord_cuts[i] = CutsForCoord(level, i);
    const double t = (x[i] - lo_[i]) / (hi_[i] - lo_[i]);
    const uint64_t cells = uint64_t{1} << coord_cuts[i];
    uint64_t c = static_cast<uint64_t>(t * static_cast<double>(cells));
    if (c >= cells) c = cells - 1;  // x at the upper boundary
    coord_cell[i] = c;
  }
  uint64_t index = 0;
  for (int step = 0; step < level; ++step) {
    const int coord = step % d;
    const int cut = step / d;  // 0-based cut number for this coordinate
    const int bit = static_cast<int>(
        (coord_cell[coord] >> (coord_cuts[coord] - 1 - cut)) & 1u);
    index = (index << 1) | static_cast<uint64_t>(bit);
  }
  return index;
}

Status BoxDomain::ValidateBatch(const double* flat, int dim,
                                size_t count) const {
  if (count == 0) return Status::OK();
  const size_t d = lo_.size();
  if (static_cast<size_t>(dim) != d) {
    // Arity is batch-wide in the columnar form; report it the way the
    // per-point path would for the first point.
    return Status::InvalidArgument(
        "batch point 0: point has " + std::to_string(dim) +
        " coordinates, domain '" + Name() + "' expects " +
        std::to_string(d));
  }
  const size_t n = count * d;
  const size_t bad =
      simd::FindOutOfBounds(flat, n, lo_pat_.data(), hi_pat_.data(), tile_);
  if (bad == n) return Status::OK();
  const size_t i = bad / d;
  const double* row = flat + i * d;
  const Status valid = ValidatePoint(Point(row, row + d));
  return Status(valid.code(),
                "batch point " + std::to_string(i) + ": " + valid.message());
}

void BoxDomain::LocateBatch(const double* flat, int dim, size_t count,
                            int level, uint64_t* out) const {
  PRIVHP_DCHECK(level >= 0 && level <= max_level_);
  PRIVHP_DCHECK(dim == dimension());
  (void)dim;  // only consumed by the debug check above
  const int d = dimension();
  PRIVHP_CHECK(d <= 64);
  int coord_cuts[64];
  for (int i = 0; i < d; ++i) coord_cuts[i] = CutsForCoord(level, i);
  // Phase 1 (vectorized): per-coordinate cut positions
  // t*2^cuts = ((x - lo) / (hi - lo)) * cells over the whole arena, with
  // the division and multiplication kept as two rounded steps so the
  // values match Locate() bit-for-bit. Thread-local scratch: callers
  // window batches (PrivHPShard), so this stays a bounded allocation.
  thread_local std::vector<double> cells_pat;
  thread_local std::vector<double> positions;
  cells_pat.resize(tile_);
  for (size_t k = 0; k < tile_; ++k) {
    cells_pat[k] = static_cast<double>(
        uint64_t{1} << coord_cuts[k % static_cast<size_t>(d)]);
  }
  const size_t n = count * static_cast<size_t>(d);
  positions.resize(n);
  simd::ScaledCutPositions(flat, n, lo_pat_.data(), ext_pat_.data(),
                           cells_pat.data(), tile_, positions.data());
  // Phase 2 (scalar): truncate, clamp, and bit-interleave. For d == 1
  // the interleave is the identity (coord_cuts[0] == level and the bits
  // are read MSB-to-LSB), so the deepest index IS the clamped cell.
  if (d == 1) {
    const uint64_t cells = uint64_t{1} << level;
    for (size_t p = 0; p < count; ++p) {
      const uint64_t c = static_cast<uint64_t>(positions[p]);
      out[p] = c >= cells ? cells - 1 : c;  // clamp: x at the upper bound
    }
    return;
  }
  for (size_t p = 0; p < count; ++p) {
    const double* pos = positions.data() + p * static_cast<size_t>(d);
    // Bit-interleave coordinate-major: coordinate i's cut bits land at
    // positions level-1-i, level-1-i-d, ... (cut c of coordinate i is step
    // c*d+i of the cyclic walk). Each coordinate's spread is an
    // independent dependency chain, unlike the step-major walk, and no
    // per-step division is needed. Produces exactly Locate()'s index.
    uint64_t index = 0;
    for (int i = 0; i < d; ++i) {
      const int cuts = coord_cuts[i];
      const uint64_t cells = uint64_t{1} << cuts;
      uint64_t c = static_cast<uint64_t>(pos[i]);
      if (c >= cells) c = cells - 1;  // x at the upper boundary
      int at = level - 1 - i;         // position of this coord's MSB cut
      for (int cut = cuts - 1; cut >= 0; --cut) {
        index |= ((c >> cut) & 1u) << at;
        at -= d;
      }
    }
    out[p] = index;
  }
}

double BoxDomain::CellDiameter(int level) const {
  PRIVHP_DCHECK(level >= 0 && level <= max_level_);
  double diam = 0.0;
  for (int i = 0; i < dimension(); ++i) {
    const double side =
        (hi_[i] - lo_[i]) * std::ldexp(1.0, -CutsForCoord(level, i));
    diam = std::max(diam, side);
  }
  return diam;
}

double BoxDomain::LevelDiameterSum(int level) const {
  // All level-l cells are congruent boxes, so Gamma_l = 2^l * gamma_l.
  return std::ldexp(1.0, level) * CellDiameter(level);
}

void BoxDomain::CellBoundsWalk(int level, uint64_t index, double* lo,
                               double* hi) const {
  const int d = dimension();
  for (int step = 0; step < level; ++step) {
    const int coord = step % d;
    const double mid = 0.5 * (lo[coord] + hi[coord]);
    if (PrefixBit(index, level, step)) {
      lo[coord] = mid;
    } else {
      hi[coord] = mid;
    }
  }
}

void BoxDomain::CellBounds(int level, uint64_t index,
                           std::vector<double>* cell_lo,
                           std::vector<double>* cell_hi) const {
  PRIVHP_DCHECK(level >= 0 && level <= max_level_);
  PRIVHP_DCHECK(index < (uint64_t{1} << level));
  *cell_lo = lo_;
  *cell_hi = hi_;
  CellBoundsWalk(level, index, cell_lo->data(), cell_hi->data());
}

bool BoxDomain::CellBoundsFor(int level, uint64_t index, double* lo,
                              double* hi) const {
  PRIVHP_DCHECK(level >= 0 && level <= max_level_);
  PRIVHP_DCHECK(index < (uint64_t{1} << level));
  std::copy(lo_.begin(), lo_.end(), lo);
  std::copy(hi_.begin(), hi_.end(), hi);
  CellBoundsWalk(level, index, lo, hi);
  return true;
}

bool BoxDomain::CellBoundsBatch(const CellId* cells, size_t count,
                                double* lo, double* hi) const {
  const size_t d = lo_.size();
  // stack_lo/hi[l * d + c]: coordinate c's bounds after the first l
  // bisections of the previous cell; row 0 is the domain box.
  thread_local std::vector<double> stack_lo;
  thread_local std::vector<double> stack_hi;
  stack_lo.resize((static_cast<size_t>(max_level_) + 1) * d);
  stack_hi.resize(stack_lo.size());
  std::copy(lo_.begin(), lo_.end(), stack_lo.begin());
  std::copy(hi_.begin(), hi_.end(), stack_hi.begin());
  int prev_level = 0;
  uint64_t prev_index = 0;
  for (size_t s = 0; s < count; ++s) {
    const int level = cells[s].level;
    const uint64_t index = cells[s].index;
    PRIVHP_DCHECK(level >= 0 && level <= max_level_);
    PRIVHP_DCHECK(index < (uint64_t{1} << level));
    // Bisections shared with the previous cell: its first `shared` bits.
    // Both prefixes cut to the shallower level, then the highest bit
    // where they differ ends the shared run.
    const int common = std::min(level, prev_level);
    const uint64_t diff =
        (index >> (level - common)) ^ (prev_index >> (prev_level - common));
    const int shared =
        diff == 0 ? common : CountLeadingZeros64(diff) - (64 - common);
    size_t coord = static_cast<size_t>(shared) % d;
    for (int step = shared; step < level; ++step) {
      const double* from_lo = stack_lo.data() + step * d;
      const double* from_hi = stack_hi.data() + step * d;
      double* to_lo = stack_lo.data() + (step + 1) * d;
      double* to_hi = stack_hi.data() + (step + 1) * d;
      for (size_t c = 0; c < d; ++c) {
        to_lo[c] = from_lo[c];
        to_hi[c] = from_hi[c];
      }
      // Selects instead of branching: the bit is a coin flip per step.
      const double cut_lo = from_lo[coord];
      const double cut_hi = from_hi[coord];
      const double mid = 0.5 * (cut_lo + cut_hi);
      const bool upper = PrefixBit(index, level, step) != 0;
      to_lo[coord] = upper ? mid : cut_lo;
      to_hi[coord] = upper ? cut_hi : mid;
      if (++coord == d) coord = 0;
    }
    const double* at_lo = stack_lo.data() + level * d;
    const double* at_hi = stack_hi.data() + level * d;
    for (size_t c = 0; c < d; ++c) {
      lo[s * d + c] = at_lo[c];
      hi[s * d + c] = at_hi[c];
    }
    prev_level = level;
    prev_index = index;
  }
  return true;
}

Point BoxDomain::SampleCell(int level, uint64_t index,
                            RandomEngine* rng) const {
  std::vector<double> cell_lo, cell_hi;
  CellBounds(level, index, &cell_lo, &cell_hi);
  Point p(dimension());
  for (int i = 0; i < dimension(); ++i) {
    p[i] = rng->UniformDouble(cell_lo[i], cell_hi[i]);
  }
  return p;
}

Point BoxDomain::CellCenter(int level, uint64_t index) const {
  std::vector<double> cell_lo, cell_hi;
  CellBounds(level, index, &cell_lo, &cell_hi);
  Point center(dimension());
  for (int i = 0; i < dimension(); ++i) {
    center[i] = 0.5 * (cell_lo[i] + cell_hi[i]);
  }
  return center;
}

double BoxDomain::Distance(const Point& a, const Point& b) const {
  PRIVHP_DCHECK(a.size() == b.size());
  double dist = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    dist = std::max(dist, std::abs(a[i] - b[i]));
  }
  return dist;
}

}  // namespace privhp
