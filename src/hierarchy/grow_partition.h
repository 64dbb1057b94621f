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
  /// indices. GrowPartition asks for a level's children in chunks of at
  /// most 256, in the order it would Query them one by one, and from
  /// several threads at once when it runs with more than one. The
  /// default loops over Query in index order; sources with a batched
  /// kernel override it and must return the same values.
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
/// Line 3 makes every level-L* node hot, so level L*+1 is complete. It is
/// appended with Complete's breadth-first arithmetic (node i's children
/// are 2i + 1 and 2i + 2), which gives the nodes and the order that
/// AddChildren over level L* in index order would, and its queries, the
/// consistency steps of Lines 2 and 9 down to it and its top-k are split
/// over \p num_threads threads by subtree. The levels below it grow at
/// most k hot nodes each, on the calling thread: AddChildren for every
/// hot node in hot-set order, the new children's queries, then one
/// consistency step per parent. Queries go to the source in id order,
/// in chunks of at most 256 cells per QueryBatch call. Each consistency
/// step reads only its parent's final count and writes only its own two
/// children, and the top-k is taken under one total order (count
/// descending, then cell index ascending), so the grown tree is the same,
/// byte for byte, for every \p num_threads.
///
/// With \p num_threads > 1, QueryBatch is called concurrently from up to
/// that many threads, each with its own range of cells; the source must
/// allow that (a read-only sketch does, a source that draws from a shared
/// generator does not and must be run with one thread). With one thread
/// no thread is started.
///
/// Preconditions: \p tree is complete to level `l_star` in breadth-first
/// order (as PartitionTree::Complete builds it) with counts already
/// populated. On success the tree's leaves lie between l_star and grow_to
/// and all counts are consistent (when enforce_consistency). A tree built
/// at GrownNodeCount() capacity never reallocates while it grows.
Status GrowPartition(PartitionTree* tree, const LevelFrequencySource& source,
                     const GrowOptions& options, int num_threads = 1);

}  // namespace privhp

#endif  // PRIVHP_HIERARCHY_GROW_PARTITION_H_
