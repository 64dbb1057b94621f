#include "sketch/count_min_sketch.h"

#include <algorithm>

#include "common/macros.h"
#include "common/simd.h"

namespace privhp {

CountMinSketch::CountMinSketch(size_t width, size_t depth, uint64_t seed)
    : width_(width),
      depth_(depth),
      seed_(seed),
      width_pow2_((width & (width - 1)) == 0 &&
                  width <= (uint64_t{1} << 32)),
      hashes_(),
      cells_(width * depth, 0.0) {
  PRIVHP_CHECK(width_ >= 1);
  PRIVHP_CHECK(depth_ >= 1);
  hashes_.reserve(depth_);
  for (size_t row = 0; row < depth_; ++row) {
    hashes_.emplace_back(Mix64(seed + 0x9e3779b97f4a7c15ULL * (row + 1)));
  }
}

Result<CountMinSketch> CountMinSketch::Make(size_t width, size_t depth,
                                            uint64_t seed) {
  if (width == 0 || depth == 0) {
    return Status::InvalidArgument(
        "count-min sketch requires width >= 1 and depth >= 1");
  }
  return CountMinSketch(width, depth, seed);
}

void CountMinSketch::Update(uint64_t key, double delta) {
  for (size_t row = 0; row < depth_; ++row) {
    cells_[row * width_ + Column(row, key)] += delta;
  }
}

namespace {

// Keys per simd::HashBuckets call: a 1 KiB bucket buffer that stays in
// L1 between hashing and scatter.
constexpr size_t kHashRun = 256;

}  // namespace

template <typename RunFn>
void CountMinSketch::ForEachBucketRun(const uint64_t* keys, size_t count,
                                      RunFn fn) const {
  const uint64_t mask = width_ - 1;
  uint32_t buckets[kHashRun];
  for (size_t base = 0; base < count; base += kHashRun) {
    const size_t n = std::min(kHashRun, count - base);
    for (size_t row = 0; row < depth_; ++row) {
      simd::HashBuckets(keys + base, n, hashes_[row].multiplier(),
                        hashes_[row].salt(), mask, buckets);
      fn(row, base, n, buckets);
    }
  }
}

template <typename DeltaFn>
void CountMinSketch::AddToRows(const uint64_t* keys, size_t count,
                               DeltaFn delta) {
  if (width_pow2_) {
    const auto scatter = [&](size_t row, size_t base, size_t n,
                             const uint32_t* buckets) {
      double* cells = cells_.data() + row * width_;
      for (size_t i = 0; i < n; ++i) cells[buckets[i]] += delta(base + i);
    };
    ForEachBucketRun(keys, count, scatter);
    return;
  }
  for (size_t row = 0; row < depth_; ++row) {
    const CompactHash hash = hashes_[row];
    double* cells = cells_.data() + row * width_;
    for (size_t i = 0; i < count; ++i) {
      cells[hash.Bucket(keys[i], width_)] += delta(i);
    }
  }
}

void CountMinSketch::UpdateBatch(const uint64_t* keys, size_t count,
                                 double delta) {
  AddToRows(keys, count, [delta](size_t) { return delta; });
}

void CountMinSketch::AddCounts(const uint64_t* keys, const double* counts,
                               size_t m) {
  AddToRows(keys, m, [counts](size_t i) { return counts[i]; });
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
  if (!width_pow2_) {
    for (size_t i = 0; i < count; ++i) out[i] = Estimate(keys[i]);
    return;
  }
  // A running minimum in row order, as Estimate takes it.
  const auto min_into = [&](size_t row, size_t base, size_t n,
                            const uint32_t* buckets) {
    const double* cells = cells_.data() + row * width_;
    double* est = out + base;
    if (row == 0) {
      for (size_t i = 0; i < n; ++i) est[i] = cells[buckets[i]];
    } else {
      for (size_t i = 0; i < n; ++i) {
        est[i] = std::min(est[i], cells[buckets[i]]);
      }
    }
  };
  ForEachBucketRun(keys, count, min_into);
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
