// O(1)-per-draw sampler compiled from a decomposition tree.
//
// A consistent tree is a categorical distribution over its leaf cells, so
// the root-to-leaf walk (tree_sampler.h) can be compiled once into a Vose
// alias table over the positive-mass leaves: every draw is then one
// uniform slot pick plus one biased coin, independent of tree depth, with
// no pointer chasing through the node arena. Zero-mass leaves never enter
// the table, so the compiled sampler is structurally incapable of
// emitting points from cells the released distribution assigns zero
// probability (the edge case the walk needs explicit guards for).
//
// Compilation is deterministic (leaves are taken in pre-order), so a
// fixed seed yields a fixed output stream — but the draw sequence is NOT
// byte-compatible with the legacy walk's (sampler format v2; see
// docs/ARCHITECTURE.md "Sampler determinism & versioning").
//
// The hot path reads the table through a CompiledTableView — raw pointers
// plus a slot count. Normally the view points at the sampler's own
// vectors, but Borrow() wraps a table that lives elsewhere (the alias
// sections of a memory-mapped paged artifact, storage/paged_artifact.h),
// so serving a packed file never copies or rebuilds the table. The draw
// code is shared, so owned and borrowed samplers are bit-identical for
// the same table bytes.
//
// Like everything downstream of the released tree, this is privacy-free
// post-processing (Lemma 2).

#ifndef PRIVHP_HIERARCHY_COMPILED_SAMPLER_H_
#define PRIVHP_HIERARCHY_COMPILED_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "domain/domain.h"
#include "hierarchy/partition_tree.h"
#include "io/point_sink.h"

namespace privhp {

/// \brief Borrowed, read-only view of a compiled alias table: the arrays
/// the draw loop actually touches. slot_lo/slot_ext are the per-slot
/// in-cell bounds rows (num_slots * dim doubles each) for the columnar
/// transform; both are null when the domain has no closed-form cell
/// bounds. The packer serializes exactly these arrays, so a paged
/// artifact round-trips the table bit-for-bit.
struct CompiledTableView {
  const CellId* cells = nullptr;
  const double* accept = nullptr;
  const uint32_t* alias = nullptr;
  size_t num_slots = 0;
  const double* slot_lo = nullptr;
  const double* slot_ext = nullptr;
};

/// \brief Alias-table batch sampler over a tree's leaf-cell distribution.
///
/// Self-contained when built from a tree: construction copies the leaf
/// cells and masses out of the tree, so the tree may be mutated or
/// destroyed afterwards — only the Domain must outlive the sampler. If
/// the tree's total positive leaf mass is <= 0 (possible at extreme
/// privacy noise), sampling falls back to uniform over the whole domain,
/// matching TreeSampler. A Borrow()ed sampler additionally requires the
/// viewed arrays to outlive it.
class CompiledSampler {
 public:
  /// \brief Compiles the alias table from \p tree's leaves (O(#leaves)).
  explicit CompiledSampler(const PartitionTree& tree);

  /// \brief Wraps an already-compiled table without copying it (e.g. the
  /// alias sections of an mmapped paged artifact). \p view's arrays must
  /// outlive the sampler and must hold bytes a tree-compiling
  /// construction would have produced — then every draw is bit-identical
  /// to the owning sampler's. \p total_mass is the positive leaf mass
  /// the table was built from (0 on the uniform fallback).
  static CompiledSampler Borrow(const Domain* domain,
                                const CompiledTableView& view,
                                double total_mass);

  // An owning sampler's view points into its own vectors, so copies must
  // re-point the view at the copied storage; moves keep the heap buffers
  // and need no fixup. Borrowed samplers share the external arrays.
  CompiledSampler(const CompiledSampler& other);
  CompiledSampler& operator=(const CompiledSampler& other);
  CompiledSampler(CompiledSampler&& other) = default;
  CompiledSampler& operator=(CompiledSampler&& other) = default;

  /// \brief The alias-table slot one draw lands in: O(1), two RNG draws
  /// (the uniform slot pick, then the biased coin).
  uint32_t SampleSlot(RandomEngine* rng) const {
    const uint64_t i = rng->UniformInt(view_.num_slots);
    const double u = rng->UniformDouble();
    return static_cast<uint32_t>(u < view_.accept[i] ? i : view_.alias[i]);
  }

  /// \brief The leaf cell one draw lands in.
  CellId SampleLeafCell(RandomEngine* rng) const {
    return view_.cells[SampleSlot(rng)];
  }

  /// \brief One synthetic point (leaf cell draw + uniform within cell).
  Point Sample(RandomEngine* rng) const {
    const CellId cell = SampleLeafCell(rng);
    return domain_->SampleCell(cell.level, cell.index, rng);
  }

  /// \brief Appends \p m synthetic points to \p out (reset to the
  /// domain's dimension first) — the columnar hot path. The RNG draw
  /// order is exactly m Sample() calls (per point: slot pick, coin, then
  /// one uniform per coordinate), so the output is bit-identical to the
  /// scalar path; only the in-cell affine transform is deferred and run
  /// vectorized over the arena (common/simd.h), using per-slot bounds
  /// tables precompiled via Domain::CellBoundsFor. Domains without
  /// closed-form cell bounds fall back to per-point Sample() into the
  /// arena (same draws, trivially identical).
  Status SampleTo(size_t m, RandomEngine* rng, PointBatch* out) const;

  /// \brief \p m synthetic points. Draws the same sequence as m calls to
  /// Sample() and as GenerateTo() under the same rng state.
  std::vector<Point> SampleBatch(size_t m, RandomEngine* rng) const;

  /// \brief Streams \p m points into \p sink without materializing them
  /// all: points travel in reused columnar chunks through
  /// PointSink::AddAll(PointBatch) — the serve-side hot path (zero
  /// per-point allocation between sampler and a batching sink). Same
  /// draw sequence as m Sample() calls.
  Status GenerateTo(size_t m, RandomEngine* rng, PointSink* sink) const;

  /// \brief Positive-mass leaf cells in the table (1 on the uniform
  /// fallback).
  size_t num_cells() const { return view_.num_slots; }

  /// \brief Sum of positive leaf masses the table was built from (0 on
  /// the uniform fallback).
  double total_mass() const { return total_mass_; }

  const Domain* domain() const { return domain_; }

  /// \brief The table arrays the draw loop reads — what the artifact
  /// packer serializes.
  const CompiledTableView& view() const { return view_; }

  /// \brief True iff the table is borrowed rather than owned.
  bool borrowed() const { return borrowed_; }

  /// \brief Bytes held by the compiled table (the owned storage only; a
  /// borrowed sampler holds pointers into someone else's bytes).
  size_t MemoryBytes() const;

  /// \brief An upper bound on MemoryBytes() of the table compiled from
  /// \p tree, computed without compiling it — what a holder that
  /// compiles on first use charges up front.
  static size_t MemoryBytesBound(const PartitionTree& tree);

 private:
  CompiledSampler() = default;

  /// Precomputes slot_lo_/slot_ext_ from the domain's closed-form cell
  /// bounds; sets has_bounds_ = false (per-point fallback) if the domain
  /// has none.
  void BuildBoundsTables();

  /// Points view_ at the owned vectors.
  void RefreshView();

  const Domain* domain_ = nullptr;
  std::vector<CellId> cells_;     // positive-mass leaves, pre-order
  std::vector<double> accept_;    // Vose acceptance probability per slot
  std::vector<uint32_t> alias_;   // Vose alias slot
  double total_mass_ = 0.0;
  // Per-slot in-cell affine tables for the columnar path: slot s spans
  // [slot_lo_[s*d+c], slot_lo_[s*d+c] + slot_ext_[s*d+c]) along
  // coordinate c, with the extent precomputed as exactly the hi - lo
  // difference SampleCell forms per draw (bit-identity; common/simd.h).
  int dim_ = 0;
  bool has_bounds_ = false;
  std::vector<double> slot_lo_;
  std::vector<double> slot_ext_;
  bool borrowed_ = false;
  CompiledTableView view_;
};

}  // namespace privhp

#endif  // PRIVHP_HIERARCHY_COMPILED_SAMPLER_H_
