// Misra-Gries heavy-hitter summary: the counter-based sketch used by the
// Biswas et al. hierarchical-heavy-hitter baseline the paper compares its
// sketch choice against (Section 2.1). Estimates undershoot by at most
// total/(k+1); included for the sketch-comparison bench.

#ifndef PRIVHP_SKETCH_MISRA_GRIES_H_
#define PRIVHP_SKETCH_MISRA_GRIES_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "common/status.h"

namespace privhp {

/// \brief Misra-Gries summary with \p capacity counters over unit updates.
///
/// Update() requires non-negative deltas (decrement semantics are
/// undefined for Misra-Gries); fractional positive weights are supported.
class MisraGries {
 public:
  explicit MisraGries(size_t capacity);

  static Result<MisraGries> Make(size_t capacity);

  void Update(uint64_t key, double delta);
  double Estimate(uint64_t key) const;
  size_t MemoryBytes() const;

  /// \brief Total weight processed; the estimation undershoot is at most
  /// TotalWeight() / (capacity + 1).
  double TotalWeight() const { return total_; }

  /// \brief Number of live counters (<= capacity).
  size_t NumCounters() const { return counters_.size(); }

 private:
  size_t capacity_;
  double total_ = 0.0;
  std::unordered_map<uint64_t, double> counters_;
};

}  // namespace privhp

#endif  // PRIVHP_SKETCH_MISRA_GRIES_H_
