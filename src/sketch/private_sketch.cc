#include "sketch/private_sketch.h"

#include <utility>

#include "common/macros.h"

namespace privhp {

PrivateCountMinSketch::PrivateCountMinSketch(CountMinSketch base,
                                             double epsilon)
    : base_(std::move(base)), epsilon_(epsilon) {}

Result<PrivateCountMinSketch> PrivateCountMinSketch::Privatize(
    CountMinSketch base, double epsilon, RandomEngine* rng) {
  if (epsilon > 0.0 && rng == nullptr) {
    return Status::InvalidArgument(
        "private count-min sketch with epsilon > 0 requires a noise source");
  }
  PrivateCountMinSketch sketch(std::move(base), epsilon);
  if (epsilon > 0.0) {
    sketch.base_.AddLaplaceNoise(rng, sketch.NoiseScale());
  }
  return sketch;
}

double PrivateCountMinSketch::Estimate(uint64_t key) const {
  return base_.Estimate(key);
}

size_t PrivateCountMinSketch::MemoryBytes() const {
  return base_.MemoryBytes() + sizeof(epsilon_);
}

double PrivateCountMinSketch::NoiseScale() const {
  PRIVHP_DCHECK(epsilon_ > 0.0);
  return static_cast<double>(base_.depth()) / epsilon_;
}

}  // namespace privhp
