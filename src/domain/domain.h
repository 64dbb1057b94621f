// Metric-space domains with binary hierarchical decomposition.
//
// PrivHP's analysis (Theorem 3) holds for any metric space (Omega, rho)
// equipped with a fixed binary decomposition: at level l the domain is
// split into 2^l disjoint cells indexed by theta in {0,1}^l. A Domain
// supplies everything the hierarchy machinery needs:
//
//   * Locate(x, l)        -> index of the unique level-l cell containing x
//   * CellDiameter(l)     -> gamma_l  = max_theta diam(Omega_theta)
//   * LevelDiameterSum(l) -> Gamma_l  = sum_theta diam(Omega_theta)
//   * SampleCell(l, i)    -> uniform point from cell i at level l
//
// Cell indices are the natural binary encoding of theta: the level-l cell
// with index i has children 2i and 2i+1 at level l+1.

#ifndef PRIVHP_DOMAIN_DOMAIN_H_
#define PRIVHP_DOMAIN_DOMAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "domain/point_batch.h"

namespace privhp {

/// \brief Identifies one subdomain Omega_theta: `level` = |theta|,
/// `index` = theta read as a binary number (MSB = first split).
///
/// Every byte is a member: the 4 bytes between level and index are an
/// explicit, always-zero pad, so a CellId (and the TreeNode holding one)
/// is written to a paged artifact as it sits in memory
/// (storage/page.h's PackedCell and PackedTreeNode share its layout).
struct CellId {
  int32_t level = 0;
  uint32_t pad = 0;
  uint64_t index = 0;

  constexpr CellId() = default;
  constexpr CellId(int cell_level, uint64_t cell_index)
      : level(cell_level), index(cell_index) {}

  bool operator==(const CellId& other) const {
    return level == other.level && index == other.index;
  }
  bool operator!=(const CellId& other) const { return !(*this == other); }

  /// \brief Parent cell (level must be >= 1).
  CellId Parent() const { return {level - 1, index >> 1}; }
  /// \brief Left child (theta . 0).
  CellId Left() const { return {level + 1, index << 1}; }
  /// \brief Right child (theta . 1).
  CellId Right() const { return {level + 1, (index << 1) | 1u}; }
};

/// \brief Abstract metric domain with a fixed binary decomposition.
///
/// Implementations must be deterministic: the cell boundaries are fixed a
/// priori (paper Section 4.1) and independent of the data.
class Domain {
 public:
  virtual ~Domain() = default;

  /// \brief Ambient dimension of points.
  virtual int dimension() const = 0;

  /// \brief Deepest level the decomposition supports (>= any hierarchy
  /// depth L used with this domain).
  virtual int max_level() const = 0;

  /// \brief Human-readable name for reports.
  virtual std::string Name() const = 0;

  /// \brief True iff \p x lies in Omega.
  virtual bool Contains(const Point& x) const = 0;

  /// \brief Index of the unique level-\p level cell containing \p x.
  ///
  /// Requires Contains(x) and 0 <= level <= max_level(). Locate(x, 0) == 0.
  virtual uint64_t Locate(const Point& x, int level) const = 0;

  /// \brief gamma_l: the maximum diameter of a level-\p level cell.
  virtual double CellDiameter(int level) const = 0;

  /// \brief Gamma_l: the sum of diameters of all 2^level cells.
  virtual double LevelDiameterSum(int level) const = 0;

  /// \brief Uniform sample from the level-\p level cell with index \p index.
  virtual Point SampleCell(int level, uint64_t index,
                           RandomEngine* rng) const = 0;

  /// \brief Deterministic representative (centroid) of a cell; used as the
  /// transport support point in EMD evaluation. The default averages
  /// fixed-seed uniform draws; box-style domains override with the exact
  /// midpoint.
  virtual Point CellCenter(int level, uint64_t index) const;

  /// \brief Distance between two points under this domain's metric.
  virtual double Distance(const Point& a, const Point& b) const = 0;

  /// \brief Validates that \p x is a well-formed point for this domain.
  Status ValidatePoint(const Point& x) const;

  /// \brief Validates the \p count points of a row-major arena of \p dim
  /// coordinates each, returning OK or the first failure wrapped as
  /// "batch point <i>: <reason>" (same status codes as ValidatePoint).
  /// The batched ingest path validates every batch up front before
  /// touching any state. The default stages one scratch Point per row;
  /// box-style domains override with a SIMD bounds scan.
  virtual Status ValidateBatch(const double* flat, int dim,
                               size_t count) const;

  /// \brief PointBatch convenience (forwards to the flat overload).
  Status ValidateBatch(const PointBatch& batch) const {
    return ValidateBatch(batch.data(), batch.dim(), batch.size());
  }

  /// \brief Axis-aligned bounds of cell (\p level, \p index) when the
  /// domain has them in closed form: fills \p lo and \p hi (dimension()
  /// doubles each) and returns true. The default returns false, which
  /// sends batched samplers down the generic SampleCell path; box-style
  /// domains override so CompiledSampler can precompute per-slot bounds
  /// tables for the SIMD in-cell uniform step.
  virtual bool CellBoundsFor(int level, uint64_t index, double* lo,
                             double* hi) const;

  /// \brief CellBoundsFor over \p count cells at once: cell s's bounds
  /// go to lo[s * dimension()] and hi[s * dimension()], bit for bit what
  /// CellBoundsFor writes. Returns false, leaving the outputs unspecified,
  /// when the domain has no closed-form bounds. Any order is correct;
  /// pre-order (a tree's leaves, CompiledSampler's slots) is the fast one
  /// for BoxDomain, which re-walks only the bisections a cell does not
  /// share with the one before it. The default loops CellBoundsFor.
  virtual bool CellBoundsBatch(const CellId* cells, size_t count, double* lo,
                               double* hi) const;

  /// \brief Locate all levels 0..max in one pass: out[l] = Locate(x, l).
  ///
  /// Default implementation derives all prefixes from Locate(x, max);
  /// correct because cell indices are prefix codes.
  void LocatePath(const Point& x, int max, std::vector<uint64_t>* out) const;

  /// \brief The one batched locate: out[i] = Locate(x_i, \p level) for
  /// the \p count points of a row-major arena of \p dim coordinates each
  /// (dim must equal dimension(); every point must be contained in the
  /// domain, so callers validate first). Only the deepest key is needed
  /// per point: by the prefix-code contract above, the level-l key of a
  /// point is its level-\p level key shifted right by (level - l), which
  /// is how PrivHPShard::AddBatch derives every coarser level from one
  /// locate per point. The default stages one scratch Point per row;
  /// box-style domains override with the SIMD cut-position kernel.
  virtual void LocateBatch(const double* flat, int dim, size_t count,
                           int level, uint64_t* out) const;

  /// \brief Level-major path expansion of LocateBatch, into caller-owned
  /// scratch of (max + 1) * count keys: out[l * count + i] =
  /// Locate(x_i, l) for 0 <= l <= max. Writes the leaf keys into the last
  /// row with one LocateBatch call, then fills the coarser rows by shifts.
  void LocatePathBatch(const double* flat, int dim, size_t count, int max,
                       uint64_t* out) const;

  /// \brief PointBatch convenience (forwards to the flat overload).
  void LocatePathBatch(const PointBatch& batch, int max,
                       uint64_t* out) const {
    LocatePathBatch(batch.data(), batch.dim(), batch.size(), max, out);
  }
};

}  // namespace privhp

#endif  // PRIVHP_DOMAIN_DOMAIN_H_
