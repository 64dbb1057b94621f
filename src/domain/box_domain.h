// Axis-aligned box domains under the l_infinity metric with cyclic
// coordinate cuts. This is the shared implementation behind
// IntervalDomain, HypercubeDomain and GeoDomain.

#ifndef PRIVHP_DOMAIN_BOX_DOMAIN_H_
#define PRIVHP_DOMAIN_BOX_DOMAIN_H_

#include <string>
#include <vector>

#include "domain/domain.h"

namespace privhp {

/// \brief Box [lo_0,hi_0] x ... x [lo_{d-1},hi_{d-1}] with the natural
/// binary decomposition: level l+1 halves level-l cells along coordinate
/// (l mod d), so every coordinate is halved once per d levels.
///
/// Under l_infinity, gamma_l = max_i extent_i * 2^{-cuts_i(l)} where
/// cuts_i(l) = floor(l/d) + [ (l mod d) > i ], and Gamma_l = 2^l * gamma_l
/// (all level-l cells are congruent).
class BoxDomain : public Domain {
 public:
  /// \param name Report name.
  /// \param lo,hi Per-coordinate bounds; requires lo[i] < hi[i].
  /// \param max_level Deepest supported level (<= 62).
  BoxDomain(std::string name, std::vector<double> lo, std::vector<double> hi,
            int max_level = 40);

  int dimension() const override { return static_cast<int>(lo_.size()); }
  int max_level() const override { return max_level_; }
  std::string Name() const override { return name_; }

  bool Contains(const Point& x) const override;
  uint64_t Locate(const Point& x, int level) const override;
  double CellDiameter(int level) const override;
  double LevelDiameterSum(int level) const override;
  Point SampleCell(int level, uint64_t index,
                   RandomEngine* rng) const override;
  Point CellCenter(int level, uint64_t index) const override;
  double Distance(const Point& a, const Point& b) const override;

  /// \brief Columnar locate over a row-major arena: the per-coordinate
  /// cut positions ((x - lo) / (hi - lo)) * 2^cuts run through the SIMD
  /// kernel (common/simd.h) over the flat array, then the cast, clamp
  /// and bit-interleave per point. Division and multiplication stay two
  /// correctly-rounded steps, so results are bit-identical to Locate().
  void LocateBatch(const double* flat, int dim, size_t count, int level,
                   uint64_t* out) const override;

  /// \brief Columnar batch validation: one SIMD bounds scan over the
  /// arena (NaN-safe negated compares); a hit falls back to
  /// ValidatePoint on the offending row for the exact message.
  Status ValidateBatch(const double* flat, int dim,
                       size_t count) const override;
  using Domain::ValidateBatch;

  /// \brief Bounds [lo, hi) of cell \p index at \p level along each
  /// coordinate; used by tests and the figure walk-throughs.
  void CellBounds(int level, uint64_t index, std::vector<double>* cell_lo,
                  std::vector<double>* cell_hi) const;

  /// \brief Box domains have closed-form cell bounds: the same midpoint
  /// walk as CellBounds, written into caller arrays. Lets
  /// CompiledSampler precompute per-slot bounds tables.
  bool CellBoundsFor(int level, uint64_t index, double* lo,
                     double* hi) const override;

  /// \brief Prefix-shared batch of CellBoundsFor: keeps the bounds after
  /// every bisection of the previous cell on a per-level stack, finds the
  /// prefix the next cell shares with it (one XOR and a leading-zero
  /// count), and walks only the remaining bisections. Each bound is the
  /// result of the same midpoint steps as CellBoundsFor, so the tables
  /// are bit-identical.
  bool CellBoundsBatch(const CellId* cells, size_t count, double* lo,
                       double* hi) const override;

 private:
  // Number of times coordinate i has been halved after `level` cuts.
  int CutsForCoord(int level, int i) const;

  // Midpoint walk shared by CellBounds/CellBoundsFor; lo/hi hold
  // dimension() doubles and enter as the domain bounds.
  void CellBoundsWalk(int level, uint64_t index, double* lo,
                      double* hi) const;

  std::string name_;
  std::vector<double> lo_;
  std::vector<double> hi_;
  int max_level_;
  // SIMD pattern arrays: the box bounds (and hi-lo extents) tiled to
  // tile_ = lcm(dimension(), 8) doubles, so coordinate j of a flat
  // arena matches pattern slot j % tile_ and vector loads of the
  // pattern stay aligned to the point grid (common/simd.h).
  size_t tile_;
  std::vector<double> lo_pat_;
  std::vector<double> hi_pat_;
  std::vector<double> ext_pat_;
};

}  // namespace privhp

#endif  // PRIVHP_DOMAIN_BOX_DOMAIN_H_
