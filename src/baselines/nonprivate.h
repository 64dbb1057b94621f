// Non-private controls: the empirical resampler (bootstrap) gives the W1
// floor any private method is compared against, and the PrivHP adapter
// wraps the core builder into the SyntheticDataSource interface used by
// the Table-1 harness.

#ifndef PRIVHP_BASELINES_NONPRIVATE_H_
#define PRIVHP_BASELINES_NONPRIVATE_H_

#include <memory>
#include <vector>

#include "baselines/synthetic_source.h"
#include "common/status.h"
#include "core/options.h"
#include "io/point_sink.h"

namespace privhp {

/// \brief Samples with replacement from the stored dataset. NOT private;
/// memory O(dn). The utility floor in every comparison table.
///
/// Also a PointSink, so the same stream plumbing that feeds PrivHP
/// shards can feed the control (it simply stores every point).
class NonPrivateResampler : public SyntheticDataSource, public PointSink {
 public:
  /// \brief Starts empty; fill through the PointSink interface.
  NonPrivateResampler() = default;

  explicit NonPrivateResampler(std::vector<Point> data);

  Status AddAll(const PointBatch& batch) override;
  uint64_t num_processed() const override { return data_.size(); }

  std::vector<Point> Generate(size_t m, RandomEngine* rng) const override;
  size_t BuildMemoryBytes() const override;
  std::string Name() const override { return "nonprivate-resample"; }

 private:
  std::vector<Point> data_;
};

/// \brief Builds a PrivHP generator from \p data through the streaming
/// builder and wraps it as a SyntheticDataSource whose reported build
/// memory is the builder's peak footprint (the paper's M, measured).
Result<std::unique_ptr<SyntheticDataSource>> BuildPrivHPSource(
    const Domain* domain, const std::vector<Point>& data,
    PrivHPOptions options);

}  // namespace privhp

#endif  // PRIVHP_BASELINES_NONPRIVATE_H_
