// Lock-free fixed-size log-scale histograms for latency and byte-size
// metrics.
//
// The paper's bounded-memory discipline extends to the telemetry: a
// histogram is one fixed array of relaxed atomics — O(1) memory per
// endpoint no matter how many events it absorbs, and Record() is a
// handful of bit operations plus two relaxed fetch_adds, cheap enough
// to sit on the point-read hot path (bench_serve gates the overhead).
//
// Bucketing (HDR-style base-2 with 8 sub-buckets per octave):
//   - values 0..7 get one exact bucket each;
//   - values in [2^o, 2^(o+1)) for o in [3, 39] split into 8 equal
//     sub-buckets, so the relative width of any bucket is <= 12.5%
//     (quantile estimates carry at most that relative error);
//   - values >= 2^40 (~18 minutes in ns, ~1 TiB in bytes) share one
//     overflow bucket whose estimate falls back to the recorded max.
// Total: 8 + 37*8 + 1 = 305 buckets, ~2.4 KiB per histogram.
//
// Concurrency: Record() is wait-free on the bucket/sum counters (one
// CAS loop maintains max). Snapshot() reads the atomics relaxed — a
// snapshot taken during concurrent recording is a valid histogram that
// may miss in-flight events, which is exactly the semantics a stats
// poll wants. Snapshots are plain structs: mergeable (shard/aggregate)
// and subtractable (interval rates for `privhp top`).

#ifndef PRIVHP_OBS_HISTOGRAM_H_
#define PRIVHP_OBS_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "common/bits.h"

namespace privhp {
namespace obs {

/// \brief Number of sub-bucket bits per octave (8 sub-buckets).
inline constexpr int kHistogramSubBits = 3;
/// \brief Values at or above 2^40 land in the overflow bucket.
inline constexpr int kHistogramMaxOctave = 40;
/// \brief Fixed bucket count (exact small values + octaves + overflow).
inline constexpr uint32_t kHistogramBuckets =
    (1u << kHistogramSubBits) +
    static_cast<uint32_t>(kHistogramMaxOctave - kHistogramSubBits)
        * (1u << kHistogramSubBits) +
    1;

/// \brief Bucket index for \p value (always < kHistogramBuckets).
inline uint32_t HistogramBucketIndex(uint64_t value) {
  constexpr uint64_t kSub = uint64_t{1} << kHistogramSubBits;
  if (value < kSub) return static_cast<uint32_t>(value);
  const int octave = FloorLog2(value);
  if (octave >= kHistogramMaxOctave) return kHistogramBuckets - 1;
  const uint64_t sub = (value >> (octave - kHistogramSubBits)) & (kSub - 1);
  return static_cast<uint32_t>(
      kSub + static_cast<uint64_t>(octave - kHistogramSubBits) * kSub + sub);
}

/// \brief Inclusive lower bound of bucket \p index.
inline uint64_t HistogramBucketLowerBound(uint32_t index) {
  constexpr uint64_t kSub = uint64_t{1} << kHistogramSubBits;
  if (index < kSub) return index;
  if (index >= kHistogramBuckets - 1) {
    return uint64_t{1} << kHistogramMaxOctave;
  }
  const uint32_t j = index - static_cast<uint32_t>(kSub);
  const int octave =
      kHistogramSubBits + static_cast<int>(j >> kHistogramSubBits);
  const uint64_t sub = j & (kSub - 1);
  return (uint64_t{1} << octave) +
         sub * (uint64_t{1} << (octave - kHistogramSubBits));
}

/// \brief Exclusive upper bound of bucket \p index (UINT64_MAX for the
/// overflow bucket).
inline uint64_t HistogramBucketUpperBound(uint32_t index) {
  if (index >= kHistogramBuckets - 1) return UINT64_MAX;
  return HistogramBucketLowerBound(index + 1);
}

/// \brief A point-in-time copy of a histogram: plain counters, safe to
/// merge, subtract, and ship over the wire.
struct HistogramSnapshot {
  std::array<uint64_t, kHistogramBuckets> buckets{};
  uint64_t sum = 0;
  uint64_t max = 0;

  /// \brief Total recorded events (sum over buckets).
  uint64_t Count() const;

  /// \brief Mean of recorded values (0 when empty).
  double Mean() const;

  /// \brief Estimated value at quantile \p q in [0, 1]: the midpoint of
  /// the bucket holding the q-th event (min(max, midpoint) so a spike
  /// never reports past the largest observed value; the overflow bucket
  /// reports the recorded max). Returns 0 when empty.
  uint64_t ValueAtQuantile(double q) const;

  /// \brief Adds \p other into this snapshot (associative/commutative,
  /// like the shard merges on the build side).
  void Merge(const HistogramSnapshot& other);

  /// \brief This snapshot minus an \p earlier one of the same histogram
  /// — the interval view `privhp top` refreshes on. Requires \p earlier
  /// to be componentwise <= this snapshot (same-histogram, earlier in
  /// time); max carries over from this snapshot.
  HistogramSnapshot Delta(const HistogramSnapshot& earlier) const;
};

/// \brief Lock-free recording side. Fixed size; never allocates after
/// construction.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// \brief Records one value. Wait-free except the max CAS loop.
  void Record(uint64_t value) {
    buckets_[HistogramBucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  /// \brief Copies the counters out (relaxed reads; see file comment).
  HistogramSnapshot Snapshot() const;

 private:
  std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

}  // namespace obs
}  // namespace privhp

#endif  // PRIVHP_OBS_HISTOGRAM_H_
