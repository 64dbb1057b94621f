// The noise-free streaming accumulator of a PrivHP build.
//
// Algorithm 1's per-point state — one counter per exact level, one
// Count-Min update per deep level — is linear in the stream, so it can be
// accumulated independently on any number of shards and merged
// element-wise. A PrivHPShard holds exactly that state: one flat array of
// the 2^(L*+1) - 1 exact counters of levels 0..L*, in breadth-first order
// (the counter of cell (l, i) sits at CompleteNodeId(l, i)), and one
// *plain* (un-noised) Count-Min sketch per level L*+1..L, all sharing the
// hash-seed family derived from the plan seed. No tree is built until
// Finish: counters need no cells or child links, so a shard is 8 bytes
// per counter, and merging two shards is an array add.
//
// Privatization is NOT the shard's job. The coordinating PrivHPBuilder
// owns the privacy accountant and applies the per-level Laplace noise
// exactly once at Finish(), after every shard has been absorbed — the
// noise is data-independent, so noise-at-finish is distributionally
// identical to Algorithm 1's noise-at-init, and an S-shard build is
// bit-for-bit identical to the 1-shard build under a fixed seed.
//
// Invariant: every counter and sketch cell of a shard holds an
// integer-valued double far below 2^53 (a count of points; noise enters
// only at Finish). Additions of integers in that range are exact, so
// grouping and reordering a batch's +1.0 additions into one +c per
// distinct (level, key) cannot change a single bit. AddBatch relies on
// this; Merge relies on it too.
//
// DANGER: a shard's state is NOT private. Never release shard contents;
// only the builder's Finish() output is an eps-DP artifact.

#ifndef PRIVHP_CORE_SHARD_H_
#define PRIVHP_CORE_SHARD_H_

#include <vector>

#include "core/planner.h"
#include "domain/domain.h"
#include "hierarchy/partition_tree.h"
#include "io/point_sink.h"
#include "sketch/count_min_sketch.h"

namespace privhp {

/// \brief Hash seed of the level-\p level sketch in a build planned with
/// \p plan_seed. Every shard of a build derives its hashes from the plan
/// seed alone, which is what makes shard sketches mergeable.
uint64_t SketchHashSeed(uint64_t plan_seed, int level);

/// \brief Exact (pre-noise) accumulation state for one stream partition.
class PrivHPShard : public PointSink {
 public:
  /// \brief Points per AddBatch window, and the batch every feeder
  /// hands a shard (Drain, BuildParallel's reader, coalesced INGEST
  /// frames). Large enough that keys repeat within a window under skew
  /// (the Zipf bench stream keeps 45% of its deep-level (level, key)
  /// updates distinct at 16384 points, 56% at 4096), small enough that
  /// the window scratch stays bounded: 320 KiB per shard, plus 16 w
  /// bytes of sketch lanes for a sketch width w. It also keeps one
  /// window's run lengths, summed, below AddCounts' 2^32 limit.
  static constexpr size_t kWindow = 16384;

  /// \brief Smallest window AddBatch sorts. Below it sorting saves
  /// little or nothing even on skewed streams: too few keys repeat to
  /// pay for the sort's fixed cost.
  static constexpr size_t kMinSortedWindow = 512;

  /// \brief Whether AddBatch sorts a window whose points have the
  /// \p n <= kWindow leaf keys (level plan.l_max) \p leaf_keys, under
  /// \p plan. Sorting pays only when keys repeat, so it sorts when the
  /// window has at least kMinSortedWindow points and an estimated fewer
  /// than 85% of its keys at the shallowest sketch level are distinct.
  /// The estimate is one hashed bit per key in a 2 KiB bitmap (linear
  /// counting), a few ns per point.
  static bool SortsWindow(const ResolvedPlan& plan, const uint64_t* leaf_keys,
                          size_t n);

  /// \brief Allocates zeroed accumulation state for \p plan. \p domain
  /// must outlive the shard. Prefer PrivHPBuilder::NewShard(), which
  /// guarantees all shards of a build share one plan.
  static Result<PrivHPShard> Make(const Domain* domain,
                                  const ResolvedPlan& plan);

  /// \brief Processes one stream element (Algorithm 1 Lines 10-15,
  /// without noise): the scalar reference AddBatch is bit-identical to.
  Status Add(const Point& x) override;

  /// \brief Batched ingest hot path: processes the whole columnar batch
  /// in one call. Atomic: the batch is validated (one SIMD bounds scan
  /// on box domains) before any state is touched, so a failed batch
  /// leaves tree counts, sketches and num_processed() exactly as they
  /// were. The arena is then applied in windows of up to kWindow points.
  /// Per window, one Domain::LocateBatch call yields each point's leaf
  /// key (level l_max), and a walk from l_max up to 0 shifts the keys
  /// right one bit per level. A window whose keys repeat (SortsWindow)
  /// is radix-sorted first, and the walk merges equal neighbours, so
  /// each level is updated once per distinct key in the window: a
  /// counter bump of the run length, or one CountMinSketch::AddCounts
  /// over the level's runs. Any other window updates each level once per
  /// point: a counter bump of one, or one AddCounts with every count 1.
  /// By the integer invariant in the file comment both are bit-identical
  /// to calling Add() per point.
  Status AddBatch(const PointBatch& batch);

  /// \brief Sink form of AddBatch (same all-or-nothing semantics), so
  /// Drain can feed a shard directly.
  Status AddAll(const PointBatch& batch) override {
    return AddBatch(batch);
  }

  /// \brief Element-wise adds \p other's counters and sketch tables:
  /// one array add once the plans are checked.
  ///
  /// Associative and commutative; requires \p other to come from the same
  /// plan (same domain, levels, sketch shape and seed family) and to still
  /// hold its state: a moved-from shard is rejected with InvalidArgument
  /// before anything is added.
  Status Merge(PrivHPShard&& other);

  uint64_t num_processed() const override { return num_processed_; }

  /// \brief The plan this shard accumulates under.
  const ResolvedPlan& plan() const { return plan_; }

  /// \brief Exact counters of levels 0..L* (pre-noise; see file
  /// comment): the count of cell (l, i) is counts()[CompleteNodeId(l, i)].
  const std::vector<double>& counts() const { return counts_; }

  /// \brief Plain per-level sketches, index i = level L*+1+i (pre-noise).
  const std::vector<CountMinSketch>& sketches() const { return sketches_; }

  /// \brief Streaming footprint: counters + sketches, exactly
  /// 8 (2^(L*+1) - 1) + (L - L*) j (8 w + sizeof(CompactHash)) bytes.
  size_t MemoryBytes() const;

 private:
  friend class PrivHPBuilder;  // Finish() consumes counts_ and sketches_.

  PrivHPShard(const Domain* domain, ResolvedPlan plan);

  /// Applies one validated window of \p n <= kWindow points of the flat
  /// arena (no further checks).
  void AddWindow(const double* flat, size_t n);

  const Domain* domain_;
  ResolvedPlan plan_;
  std::vector<double> counts_;            // BFS order, CompleteNodeId
  std::vector<CountMinSketch> sketches_;  // level l_star+1+i
  std::vector<uint64_t> path_scratch_;
  // Window scratch, at most kWindow entries each whatever the batch size:
  // the located leaf keys and the radix sort's second buffer, then the
  // distinct keys of the current level with their run lengths (all ones
  // in a window that is not sorted). Then the four zeroed row copies
  // CountMinSketch::AddCounts may scatter into, shared by every level.
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> sort_scratch_;
  std::vector<uint32_t> runs_;
  std::vector<uint32_t> lanes_;
  uint64_t num_processed_ = 0;
};

// Drain pumps batches of exactly one shard window.
static_assert(kDrainBatchSize == PrivHPShard::kWindow,
              "Drain batches must be one PrivHPShard window");

}  // namespace privhp

#endif  // PRIVHP_CORE_SHARD_H_
