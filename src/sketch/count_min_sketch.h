// Count-Min sketch (Cormode & Muthukrishnan), the paper's sketching
// primitive (Section 3.3, Figure 1).
//
// A j x w matrix of counters; row i hashes keys into one of w buckets and
// the point estimate is the minimum across rows. Lemma 4 (with width 2w):
//   E[est - true] <= (||tail_w(v)||_1 + 2^{-j+1} ||v||_1) / w.
//
// For private release (Section 3.4) the sketch is linear with per-update
// L1 sensitivity j, so adding i.i.d. Laplace(j/eps) to every cell once,
// after accumulation, makes the released table eps-DP; see
// sketch/private_sketch.h.

#ifndef PRIVHP_SKETCH_COUNT_MIN_SKETCH_H_
#define PRIVHP_SKETCH_COUNT_MIN_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/status.h"

namespace privhp {

/// \brief Count-Min sketch over 64-bit keys with double-valued counters.
class CountMinSketch {
 public:
  /// \param width Buckets per row (w).
  /// \param depth Rows (j).
  /// \param seed Seed for the per-row hash functions.
  CountMinSketch(size_t width, size_t depth, uint64_t seed);

  /// \brief Validating factory.
  static Result<CountMinSketch> Make(size_t width, size_t depth,
                                     uint64_t seed);

  /// \brief Adds \p delta to \p key's cell in every row. Hashes one key at
  /// a time; it is the per-key reference UpdateBatch must match.
  void Update(uint64_t key, double delta);

  /// \brief Adds \p delta for each of \p count keys, one hash row at a
  /// time. With a power-of-two width the keys go in runs of at most 256:
  /// per row, one simd::HashBuckets call computes the run's buckets
  /// (eight keys per vpmullq on AVX-512; x86 has no 64-bit vector
  /// multiply below AVX-512DQ, so the compiler cannot vectorize the hash
  /// at the baseline ISA and the AVX2 kernel emulates it), then a scalar
  /// loop adds \p delta to each bucket in key order. Every cell thus
  /// receives the same additions in the same order as per-key Update()
  /// calls, so the cells are bit-identical to them for any \p delta.
  /// Other widths reduce each hash with `%`.
  void UpdateBatch(const uint64_t* keys, size_t count, double delta);

  /// \brief Adds counts[i] to keys[i]'s cell in every row, for \p m
  /// (key, count) pairs: the run-aggregated form of UpdateBatch, with the
  /// same hash runs and key-order scatter. The counts are doubles so the
  /// scatter adds them without a per-row conversion. For an integer
  /// count c, one add of c equals c adds of 1.0 bit for bit while every
  /// cell holds an integer below 2^53, so on such a sketch (a shard's
  /// plain, un-noised sketches) this matches counts[i]
  /// Update(keys[i], 1.0) calls cell for cell. On a noised sketch the
  /// grouped sums round differently.
  void AddCounts(const uint64_t* keys, const double* counts, size_t m);

  /// \brief Point estimate of \p key's count: the minimum over rows.
  double Estimate(uint64_t key) const;

  /// \brief Writes Estimate(keys[i]) to out[i] for \p count keys, one
  /// hash row at a time: with a power-of-two width, per run of at most
  /// 256 keys and per row, one simd::HashBuckets call and a running
  /// std::min in row order. A Count-Min estimate is a per-row minimum
  /// taken in the same row order as Estimate(), so every out[i] equals
  /// it bit for bit, noised or not. Other widths call Estimate() per key.
  void EstimateBatch(const uint64_t* keys, size_t count, double* out) const;

  /// \brief Total bytes held by the sketch (counters + hash seeds).
  size_t MemoryBytes() const;

  /// \brief Adds an independent draw from Laplace(\p scale) to every cell,
  /// row-major (oblivious noise for the private release, Section 3.4);
  /// PrivateCountMinSketch::Privatize is its caller.
  void AddLaplaceNoise(RandomEngine* rng, double scale);

  /// \brief Element-wise adds \p other's cells into this sketch.
  ///
  /// Count-Min is linear: sketch(X) + sketch(Y) = sketch(X ++ Y) when both
  /// sides hash with the same family, so merging shard sketches is exact.
  /// Requires identical width, depth and hash seed.
  Status Merge(const CountMinSketch& other);

  /// \brief Raw cell value (row-major); for tests and audits.
  double CellValue(size_t row, size_t col) const;

  /// \brief Sum of one row's counters (== total updates + that row's noise).
  double RowSum(size_t row) const;

  /// \brief L1 sensitivity of a single unit update: the number of rows.
  size_t L1Sensitivity() const { return depth_; }

  size_t width() const { return width_; }
  size_t depth() const { return depth_; }

  /// \brief The hash-family seed; sketches merge only when it matches.
  uint64_t seed() const { return seed_; }

 private:
  // Bucket of \p key in \p row, one key at a time: the reduction
  // UpdateBatch applies to whole key runs.
  uint64_t Column(size_t row, uint64_t key) const {
    const uint64_t hash = hashes_[row].Hash(key);
    return width_pow2_ ? hash & (width_ - 1) : hash % width_;
  }

  // The power-of-two run loop AddToRows and EstimateBatch share: hashes
  // runs of keys row by row with simd::HashBuckets and hands each run to
  // fn(row, base, n, buckets), buckets[i] being keys[base + i]'s bucket.
  template <typename RunFn>
  void ForEachBucketRun(const uint64_t* keys, size_t count, RunFn fn) const;

  // The loop UpdateBatch and AddCounts share: adds delta(i) to keys[i]'s
  // bucket in every row, row by row, in key order.
  template <typename DeltaFn>
  void AddToRows(const uint64_t* keys, size_t count, DeltaFn delta);

  size_t width_;
  size_t depth_;
  uint64_t seed_;
  // True when width_ is a power of two no larger than 2^32: bucket
  // reduction is then `hash & (width_ - 1)`, which equals `hash % width_`
  // bit-for-bit, costs one AND instead of a 64-bit divide, and yields
  // buckets that fit simd::HashBuckets' uint32_t output.
  bool width_pow2_;
  std::vector<CompactHash> hashes_;
  std::vector<double> cells_;  // row-major depth_ x width_
};

}  // namespace privhp

#endif  // PRIVHP_SKETCH_COUNT_MIN_SKETCH_H_
