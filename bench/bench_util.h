// Shared helpers for the benchmark harnesses: W1 measurement appropriate
// to the domain dimension, repeated-seed averaging, and byte formatting.

#ifndef PRIVHP_BENCH_BENCH_UTIL_H_
#define PRIVHP_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "baselines/synthetic_source.h"
#include "common/macros.h"
#include "common/random.h"
#include "domain/domain.h"
#include "eval/wasserstein.h"
#include "io/point_sink.h"

namespace privhp {
namespace bench {

/// \brief W1(synthetic, data): exact CDF-integral in d = 1; exact grid EMD
/// (falling back to TreeWasserstein when the support is too large) in
/// d >= 2. The same estimator is applied to every method in a table, so
/// comparisons are apples-to-apples.
inline double MeasureW1(const Domain& domain,
                        const std::vector<Point>& synthetic,
                        const std::vector<Point>& data) {
  if (domain.dimension() == 1) {
    return Wasserstein1DPoints(synthetic, data);
  }
  const int level = domain.dimension() == 2 ? 10 : 12;
  auto ps = QuantizeToLevel(domain, synthetic, level);
  auto pd = QuantizeToLevel(domain, data, level);
  PRIVHP_CHECK(ps.ok() && pd.ok());
  auto emd = GridEmd(domain, level, *ps, *pd, /*max_support=*/1200);
  if (emd.ok()) return *emd;
  return TreeWasserstein(domain, level, *ps, *pd);
}

/// \brief Builds a source `seeds` times (the builder must consume the
/// seed), generates |data| synthetic points each time, and returns the
/// mean W1 against the data.
inline double AverageW1(
    const Domain& domain, const std::vector<Point>& data, int seeds,
    const std::function<std::unique_ptr<SyntheticDataSource>(uint64_t seed)>&
        build) {
  double total = 0.0;
  size_t ok_runs = 0;
  for (int s = 0; s < seeds; ++s) {
    auto source = build(9000 + 17 * s);
    if (source == nullptr) continue;
    RandomEngine rng(7000 + 31 * s);
    total += MeasureW1(domain, source->Generate(data.size(), &rng), data);
    ++ok_runs;
  }
  return ok_runs > 0 ? total / static_cast<double>(ok_runs) : -1.0;
}

/// \brief PointSink that only counts, in O(1) per batch, so sink-side
/// work does not cap a measured sampler or server throughput (used by
/// bench_serve and bench_sample).
class CountingSink : public PointSink {
 public:
  Status AddAll(const PointBatch& batch) override {
    count_ += batch.size();
    return Status::OK();
  }
  uint64_t num_processed() const override { return count_; }

 private:
  uint64_t count_ = 0;
};

/// \brief Wall-clock stopwatch for the self-timed throughput benches.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  void Reset() { start_ = std::chrono::steady_clock::now(); }

  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// \brief "12.3 KiB" style byte formatting for memory columns.
inline std::string FormatBytes(size_t bytes) {
  char buf[32];
  if (bytes >= (size_t{1} << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB",
                  static_cast<double>(bytes) / (1 << 20));
  } else if (bytes >= (size_t{1} << 10)) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB",
                  static_cast<double>(bytes) / (1 << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%zu B", bytes);
  }
  return buf;
}

}  // namespace bench
}  // namespace privhp

#endif  // PRIVHP_BENCH_BENCH_UTIL_H_
