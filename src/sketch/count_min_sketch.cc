#include "sketch/count_min_sketch.h"

#include <algorithm>
#include <numeric>

#include "common/macros.h"
#include "common/simd.h"

namespace privhp {

namespace {

// Widest row: every bucket fits a uint32_t.
constexpr uint64_t kMaxWidth = uint64_t{1} << 32;

// Keys per bucket run: a 1 KiB bucket buffer that stays in L1 between
// hashing and scatter.
constexpr size_t kHashRun = 256;

// AddCounts scatters through its four row copies only for at least this
// many keys per cell (m >= 8 w). The copies cost a fold of O(w) per row
// whatever m, and they pay by breaking up chains of adds to a repeated
// bucket, which grow rare as keys per cell fall. Timed against the
// direct scatter at depth 23 over sorted keys (widths 64, 1024 and
// 4096), the copies took 1.04-2.4x as long at 1 to 4 keys per cell,
// 0.68-0.92x at 8 and 0.75-0.85x at 16 or more.
constexpr size_t kMinKeysPerCellForLanes = 8;

}  // namespace

CountMinSketch::CountMinSketch(size_t width, size_t depth, uint64_t seed)
    : width_(width),
      depth_(depth),
      seed_(seed),
      width_pow2_((width & (width - 1)) == 0),
      hashes_(),
      cells_(width * depth, 0.0) {
  PRIVHP_CHECK(width_ >= 1 && width_ <= kMaxWidth);
  PRIVHP_CHECK(depth_ >= 1);
  hashes_.reserve(depth_);
  for (size_t row = 0; row < depth_; ++row) {
    hashes_.emplace_back(Mix64(seed + 0x9e3779b97f4a7c15ULL * (row + 1)));
  }
}

Result<CountMinSketch> CountMinSketch::Make(size_t width, size_t depth,
                                            uint64_t seed) {
  if (width == 0 || width > kMaxWidth || depth == 0) {
    return Status::InvalidArgument(
        "count-min sketch requires 1 <= width <= 2^32 and depth >= 1");
  }
  return CountMinSketch(width, depth, seed);
}

void CountMinSketch::Update(uint64_t key, double delta) {
  for (size_t row = 0; row < depth_; ++row) {
    cells_[row * width_ + Column(row, key)] += delta;
  }
}

template <typename RunFn>
void CountMinSketch::RowBuckets(size_t row, const uint64_t* keys,
                                size_t count, RunFn fn) const {
  const CompactHash hash = hashes_[row];
  uint32_t buckets[kHashRun];
  for (size_t base = 0; base < count; base += kHashRun) {
    const size_t n = std::min(kHashRun, count - base);
    if (width_pow2_) {
      simd::HashBuckets(keys + base, n, hash.multiplier(), hash.salt(),
                        width_ - 1, buckets);
    } else {
      for (size_t i = 0; i < n; ++i) {
        buckets[i] = static_cast<uint32_t>(hash.Bucket(keys[base + i], width_));
      }
    }
    fn(base, n, buckets);
  }
}

void CountMinSketch::UpdateBatch(const uint64_t* keys, size_t count,
                                 double delta) {
  for (size_t row = 0; row < depth_; ++row) {
    double* cells = cells_.data() + row * width_;
    RowBuckets(row, keys, count,
               [&](size_t, size_t n, const uint32_t* buckets) {
                 for (size_t i = 0; i < n; ++i) cells[buckets[i]] += delta;
               });
  }
}

void CountMinSketch::AddCounts(const uint64_t* keys, const uint32_t* counts,
                               size_t m, uint32_t* lanes) {
  // Every lane sum below stays under 2^32, so none wraps.
  PRIVHP_DCHECK(std::accumulate(counts, counts + m, uint64_t{0}) <
                (uint64_t{1} << 32));
  if (m < kMinKeysPerCellForLanes * width_) {
    // Few keys per cell: add each run's counts, converted once, straight
    // into every row's cells.
    double run_counts[kHashRun];
    for (size_t base = 0; base < m; base += kHashRun) {
      const size_t n = std::min(kHashRun, m - base);
      for (size_t i = 0; i < n; ++i) run_counts[i] = counts[base + i];
      for (size_t row = 0; row < depth_; ++row) {
        double* cells = cells_.data() + row * width_;
        RowBuckets(row, keys + base, n,
                   [&](size_t, size_t, const uint32_t* buckets) {
                     for (size_t i = 0; i < n; ++i) {
                       cells[buckets[i]] += run_counts[i];
                     }
                   });
      }
    }
    return;
  }
  uint32_t* l0 = lanes;
  uint32_t* l1 = l0 + width_;
  uint32_t* l2 = l1 + width_;
  uint32_t* l3 = l2 + width_;
  for (size_t row = 0; row < depth_; ++row) {
    double* cells = cells_.data() + row * width_;
    RowBuckets(row, keys, m,
               [&](size_t base, size_t n, const uint32_t* buckets) {
                 const uint32_t* c = counts + base;
                 size_t i = 0;
                 for (; i + 4 <= n; i += 4) {
                   l0[buckets[i]] += c[i];
                   l1[buckets[i + 1]] += c[i + 1];
                   l2[buckets[i + 2]] += c[i + 2];
                   l3[buckets[i + 3]] += c[i + 3];
                 }
                 for (; i < n; ++i) l0[buckets[i]] += c[i];
               });
    for (size_t b = 0; b < width_; ++b) {
      cells[b] += static_cast<double>(l0[b] + l1[b] + l2[b] + l3[b]);
      l0[b] = l1[b] = l2[b] = l3[b] = 0;
    }
  }
}

double CountMinSketch::Estimate(uint64_t key) const {
  double est = cells_[Column(0, key)];
  for (size_t row = 1; row < depth_; ++row) {
    est = std::min(est, cells_[row * width_ + Column(row, key)]);
  }
  return est;
}

void CountMinSketch::EstimateBatch(const uint64_t* keys, size_t count,
                                   double* out) const {
  // A running minimum in row order, as Estimate takes it.
  for (size_t row = 0; row < depth_; ++row) {
    const double* cells = cells_.data() + row * width_;
    RowBuckets(row, keys, count,
               [&](size_t base, size_t n, const uint32_t* buckets) {
                 double* est = out + base;
                 if (row == 0) {
                   for (size_t i = 0; i < n; ++i) est[i] = cells[buckets[i]];
                   return;
                 }
                 for (size_t i = 0; i < n; ++i) {
                   est[i] = std::min(est[i], cells[buckets[i]]);
                 }
               });
  }
}

size_t CountMinSketch::MemoryBytes() const {
  return cells_.size() * sizeof(double) + hashes_.size() * sizeof(CompactHash);
}

void CountMinSketch::AddLaplaceNoise(RandomEngine* rng, double scale) {
  for (double& cell : cells_) cell += rng->Laplace(scale);
}

Status CountMinSketch::Merge(const CountMinSketch& other) {
  if (other.width_ != width_ || other.depth_ != depth_) {
    return Status::InvalidArgument(
        "cannot merge count-min sketches of different shape: " +
        std::to_string(depth_) + "x" + std::to_string(width_) + " vs " +
        std::to_string(other.depth_) + "x" + std::to_string(other.width_));
  }
  if (other.seed_ != seed_) {
    return Status::InvalidArgument(
        "cannot merge count-min sketches with different hash seeds");
  }
  for (size_t i = 0; i < cells_.size(); ++i) cells_[i] += other.cells_[i];
  return Status::OK();
}

double CountMinSketch::CellValue(size_t row, size_t col) const {
  PRIVHP_DCHECK(row < depth_ && col < width_);
  return cells_[row * width_ + col];
}

double CountMinSketch::RowSum(size_t row) const {
  PRIVHP_DCHECK(row < depth_);
  double sum = 0.0;
  for (size_t col = 0; col < width_; ++col) sum += cells_[row * width_ + col];
  return sum;
}

}  // namespace privhp
