// Count Sketch (Charikar-Chen-Farach-Colton): signed updates with a
// median-of-rows estimator. The non-private comparator the sketch-error
// bench runs beside Count-Min and Misra-Gries (paper Section 2.1).

#ifndef PRIVHP_SKETCH_COUNT_SKETCH_H_
#define PRIVHP_SKETCH_COUNT_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/status.h"

namespace privhp {

/// \brief Count Sketch over 64-bit keys: unbiased estimates with error
/// ~ ||tail||_2 / sqrt(w) per row, median across rows.
class CountSketch {
 public:
  CountSketch(size_t width, size_t depth, uint64_t seed);

  static Result<CountSketch> Make(size_t width, size_t depth, uint64_t seed);

  void Update(uint64_t key, double delta);
  double Estimate(uint64_t key) const;
  size_t MemoryBytes() const;

  size_t L1Sensitivity() const { return depth_; }
  size_t width() const { return width_; }
  size_t depth() const { return depth_; }

 private:
  size_t width_;
  size_t depth_;
  std::vector<CompactHash> hashes_;
  std::vector<double> cells_;
};

}  // namespace privhp

#endif  // PRIVHP_SKETCH_COUNT_SKETCH_H_
