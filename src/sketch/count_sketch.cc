#include "sketch/count_sketch.h"

#include <algorithm>

#include "common/macros.h"
#include "common/random.h"

namespace privhp {

CountSketch::CountSketch(size_t width, size_t depth, uint64_t seed)
    : width_(width),
      depth_(depth),
      hashes_(),
      cells_(width * depth, 0.0) {
  PRIVHP_CHECK(width_ >= 1);
  PRIVHP_CHECK(depth_ >= 1);
  hashes_.reserve(depth_);
  for (size_t row = 0; row < depth_; ++row) {
    hashes_.emplace_back(Mix64(seed + 0x9e3779b97f4a7c15ULL * (row + 1)));
  }
}

Result<CountSketch> CountSketch::Make(size_t width, size_t depth,
                                      uint64_t seed) {
  if (width == 0 || depth == 0) {
    return Status::InvalidArgument(
        "count sketch requires width >= 1 and depth >= 1");
  }
  return CountSketch(width, depth, seed);
}

void CountSketch::Update(uint64_t key, double delta) {
  for (size_t row = 0; row < depth_; ++row) {
    const auto& h = hashes_[row];
    cells_[row * width_ + h.Bucket(key, width_)] +=
        delta * static_cast<double>(SignBit(h, key));
  }
}

double CountSketch::Estimate(uint64_t key) const {
  std::vector<double> row_estimates(depth_);
  for (size_t row = 0; row < depth_; ++row) {
    const auto& h = hashes_[row];
    row_estimates[row] = cells_[row * width_ + h.Bucket(key, width_)] *
                         static_cast<double>(SignBit(h, key));
  }
  auto mid = row_estimates.begin() + depth_ / 2;
  std::nth_element(row_estimates.begin(), mid, row_estimates.end());
  if (depth_ % 2 == 1) return *mid;
  const double upper = *mid;
  const double lower = *std::max_element(row_estimates.begin(),
                                         row_estimates.begin() + depth_ / 2);
  return 0.5 * (lower + upper);
}

size_t CountSketch::MemoryBytes() const {
  return cells_.size() * sizeof(double) + hashes_.size() * sizeof(CompactHash);
}

}  // namespace privhp
