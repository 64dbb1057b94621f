// GrowPartition (paper Algorithm 2): extends the depth-L* tree of noisy
// exact counters down to the hierarchy depth, branching only at "hot"
// nodes — the top-k counts per level — with child counts queried from the
// per-level frequency source (the private sketches in Algorithm 1, or
// exact counts in the T_exact/T_approx proof-pipeline harness of
// Section 7).

#ifndef PRIVHP_HIERARCHY_GROW_PARTITION_H_
#define PRIVHP_HIERARCHY_GROW_PARTITION_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "hierarchy/partition_tree.h"

namespace privhp {

/// \brief Supplier of (noisy, approximate) level-wise frequencies:
/// Query(l, theta) estimates |Omega_theta ∩ X| for theta in {0,1}^l.
class LevelFrequencySource {
 public:
  virtual ~LevelFrequencySource() = default;
  virtual double Query(int level, uint64_t index) const = 0;

  /// \brief Writes Query(level, indices[i]) to out[i] for \p count
  /// indices. GrowPartition asks for a whole level's children in one
  /// call, in the order it used to Query them one by one. The default
  /// loops over Query in index order; sources with a batched kernel
  /// override it and must return the same values.
  virtual void QueryBatch(int level, const uint64_t* indices, size_t count,
                          double* out) const {
    for (size_t i = 0; i < count; ++i) out[i] = Query(level, indices[i]);
  }
};

/// \brief Parameters of the growing phase.
struct GrowOptions {
  /// Pruning parameter: branches kept per level below l_star.
  size_t k = 8;
  /// Level where pruning begins (the initial tree is complete to here).
  int l_star = 4;
  /// Final leaf level. Algorithm 2 grows to L-1; the caller passes that
  /// value here (kept explicit so ablations can grow to L instead).
  int grow_to = 8;
  /// Whether to run the consistency steps (Algorithm 2 Lines 2 and 9).
  /// Disabled only by the EXP-CONS ablation.
  bool enforce_consistency = true;
};

/// \brief Nodes in the tree once GrowPartition is done: the complete
/// tree of depth l_star, plus two children per hot node on every grown
/// level. The 2^l_star leaves of level l_star are all hot; after that,
/// the top k of the previous level's children are. A caller that builds
/// the complete tree at this capacity (PartitionTree::Complete) never
/// reallocates the arena.
size_t GrownNodeCount(const GrowOptions& options);

/// \brief Runs Algorithm 2 on \p tree.
///
/// The tree's node arena is reserved once to its exact final size, and
/// each level is grown in three steps: AddChildren for every hot node,
/// one QueryBatch over all the new children, then one consistency step
/// per parent in hot-set order. The queries read only the source and
/// each consistency step writes only its own parent's two children, so
/// this is the order-for-order equivalent of querying and fixing one
/// parent at a time.
///
/// Preconditions: \p tree is complete to level `l_star` (leaves exactly at
/// l_star) with counts already populated. On success the tree's leaves lie
/// between l_star and grow_to and all counts are consistent (when
/// enforce_consistency).
Status GrowPartition(PartitionTree* tree, const LevelFrequencySource& source,
                     const GrowOptions& options);

}  // namespace privhp

#endif  // PRIVHP_HIERARCHY_GROW_PARTITION_H_
