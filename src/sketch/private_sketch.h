// Private release of linear sketches (paper Section 3.4).
//
// A linear sketch C satisfies C(X) - C(X') = C(X - X') on neighboring
// inputs, so one unit update has L1 sensitivity equal to the number of
// rows j. Adding i.i.d. Laplace(j/eps) to every cell makes the released
// table eps-DP (Lemma 1), and any query against the noisy table is
// private by post-processing (Lemma 2).
//
// The noise is data-independent, so it is added once, after
// accumulation: plain mergeable sketches are combined exactly across
// shards and privatized at PrivHPBuilder::Finish (Privatize). The
// released table is read-only.

#ifndef PRIVHP_SKETCH_PRIVATE_SKETCH_H_
#define PRIVHP_SKETCH_PRIVATE_SKETCH_H_

#include <cstddef>
#include <cstdint>

#include "common/random.h"
#include "common/status.h"
#include "sketch/count_min_sketch.h"

namespace privhp {

/// \brief An eps-DP Count-Min sketch: Count-Min with oblivious
/// Laplace(j/eps) noise added to every cell.
///
/// This is `sketch_l` in Algorithm 1 (Line 8), with noise distribution
/// D_l = Laplace^{w x j}(j / sigma_l) from Theorem 2 (Equation 3).
class PrivateCountMinSketch {
 public:
  /// \brief Privatizes an accumulated plain sketch: adds Laplace(j/eps)
  /// per cell (row-major) and takes ownership.
  /// \param epsilon Privacy budget of this sketch (sigma_l). epsilon <= 0
  ///        disables noise (used by non-private ablations only) and needs
  ///        no \p rng.
  /// \param rng Noise source.
  static Result<PrivateCountMinSketch> Privatize(CountMinSketch base,
                                                 double epsilon,
                                                 RandomEngine* rng);

  /// \brief Point estimate of \p key's count from the noisy table.
  double Estimate(uint64_t key) const;

  /// \brief Batched Estimate (CountMinSketch::EstimateBatch): equal to
  /// Estimate() key for key, bit for bit.
  void EstimateBatch(const uint64_t* keys, size_t count, double* out) const {
    base_.EstimateBatch(keys, count, out);
  }

  /// \brief Total bytes held: the table plus the recorded budget.
  size_t MemoryBytes() const;

  /// \brief The privacy parameter this sketch consumed.
  double epsilon() const { return epsilon_; }

  /// \brief Noise scale applied per cell: depth / epsilon.
  double NoiseScale() const;

  const CountMinSketch& base() const { return base_; }

 private:
  PrivateCountMinSketch(CountMinSketch base, double epsilon);

  CountMinSketch base_;
  double epsilon_;
};

}  // namespace privhp

#endif  // PRIVHP_SKETCH_PRIVATE_SKETCH_H_
