// The one-pass PrivHP builder (paper Algorithm 1), split into two phases
// so parallel multi-stream ingestion is first-class:
//
//   accumulate — PrivHPShard holds the linear, noise-free state (a flat
//                array of exact counters + plain Count-Min sketches).
//                Any number of shards ingest disjoint stream partitions
//                concurrently and merge element-wise (core/shard.h);
//   privatize  — PrivHPBuilder owns planning and the privacy accountant,
//                absorbs shards, and applies the per-level Laplace noise
//                exactly once at Finish() before GrowPartition releases
//                the generator (Line 16).
//
// Noise-at-finish is distributionally identical to Algorithm 1's
// noise-at-init because the noise is data-independent; under a fixed
// seed, an S-shard build is bit-for-bit identical to the 1-shard build
// (counter and sketch increments are integer-valued, so merge order
// cannot perturb floating point).
//
// Lifecycle:
//   1. Make()        — resolve the plan, allocate the root shard, charge
//                      the privacy accountant (Lines 2-8 minus noise);
//   2. Add()         — stream points into the root shard (Lines 9-15);
//      or NewShard() / AbsorbShard() — partition the stream yourself;
//      or BuildParallel() — let the builder partition it across threads;
//   3. Finish()      — noise once, GrowPartition, release the generator.
//                      Consumes the builder.
//
// The builder is the bounded-memory component. Per shard it holds
// exactly 2^(L*+1) - 1 counters and (L - L*) sketches of j rows of w
// cells plus one CompactHash per row: MemoryBytes() is
//   8 (2^(L*+1) - 1) + (L - L*) j (8 w + sizeof(CompactHash))
// bytes, O(k log^2 n) words (the paper's M), independent of the stream
// length.

#ifndef PRIVHP_CORE_BUILDER_H_
#define PRIVHP_CORE_BUILDER_H_

#include <memory>

#include "core/generator.h"
#include "core/options.h"
#include "core/planner.h"
#include "core/shard.h"
#include "domain/domain.h"
#include "dp/privacy_accountant.h"
#include "io/point_sink.h"

namespace privhp {

/// \brief Streaming builder for a PrivHPGenerator.
class PrivHPBuilder : public PointSink {
 public:
  /// \brief Resolves \p options against \p domain, allocates the root
  /// shard, and charges the privacy accountant. \p domain must outlive
  /// the builder and the generator it produces.
  static Result<PrivHPBuilder> Make(const Domain* domain,
                                    const PrivHPOptions& options);

  /// \brief Processes one stream element (Lines 9-15).
  Status Add(const Point& x) override;

  /// \brief Processes a columnar batch through the shard's batched
  /// ingest path (PrivHPShard::AddBatch): validated up front — a failed
  /// batch leaves the build state untouched — then applied in windows,
  /// one update per distinct (level, key) per window that repeats keys.
  Status AddAll(const PointBatch& batch) override;

  /// \brief A fresh accumulation shard sharing this build's plan (and
  /// hence its hash-seed family). Shards are independent: ingest into
  /// them from any thread, then AbsorbShard() them back — the builder
  /// itself is not thread-safe, only the shards are disjoint.
  Result<PrivHPShard> NewShard() const;

  /// \brief Merges \p shard's counters and sketches into the builder
  /// and frees them: \p shard is left empty, so a caller holding many
  /// shards does not keep absorbed state resident through Finish(). A
  /// shard that cannot be merged (other domain or plan) is left intact;
  /// absorbing a shard a second time fails and changes nothing.
  Status AbsorbShard(PrivHPShard&& shard);

  /// \brief Runs GrowPartition and releases the generator (Line 16),
  /// applying the per-level Laplace noise exactly once first.
  /// The builder must not be used afterwards.
  Result<PrivHPGenerator> Finish() &&;

  /// \brief One-call parallel build: drains \p source, dispatching
  /// window-sized batches (PrivHPShard::kWindow points) through a
  /// one-window queue to \p num_threads worker threads each owning one
  /// shard, then absorbs (and frees) the shards one by one and finishes.
  /// Deterministic: the result is bit-for-bit identical to a sequential
  /// build with the same options. An in-memory dataset streams through
  /// a PointBatchSource.
  static Result<PrivHPGenerator> BuildParallel(const Domain* domain,
                                               const PrivHPOptions& options,
                                               PointSource* source,
                                               int num_threads);

  /// \brief Resolved parameters in use.
  const ResolvedPlan& plan() const { return plan_; }

  /// \brief Points processed so far (root shard only; shards created via
  /// NewShard() count once absorbed).
  uint64_t num_processed() const override { return root_.num_processed(); }

  /// \brief Current streaming footprint: counters + sketches + hash
  /// tables, in the closed form of the file comment. This is the paper's
  /// M, measured (per shard).
  size_t MemoryBytes() const;

  /// \brief Per-component memory, for the EXP-PERF report: the exact
  /// counters (8 bytes each) and the sketches' cells and row hashes.
  struct MemoryBreakdown {
    size_t counter_bytes = 0;
    size_t sketch_bytes = 0;
    size_t total_bytes = 0;
  };
  MemoryBreakdown memory_breakdown() const;

  /// \brief The privacy ledger (sums to eps by Theorem 2).
  const PrivacyAccountant& accountant() const { return *accountant_; }

 private:
  PrivHPBuilder(const Domain* domain, ResolvedPlan plan, PrivHPShard root);

  Status ChargeAccountant();

  const Domain* domain_;
  ResolvedPlan plan_;
  PrivHPShard root_;
  std::unique_ptr<PrivacyAccountant> accountant_;
  RandomEngine rng_;
  bool finished_ = false;
};

}  // namespace privhp

#endif  // PRIVHP_CORE_BUILDER_H_
