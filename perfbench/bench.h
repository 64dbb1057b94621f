// Shared pieces of the publish->serve benchmark: argument and result
// plumbing, the seeded Zipf input stream, a staged PointSource that
// clocks how BuildParallel pulls from it, a hashing PointSink, exact
// percentiles, per-window peak resident memory and the steal-aware
// measurement windows.
//
// The benchmark drives the privhp library and service only through their
// public headers; nothing here reaches into src/ internals.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/options.h"
#include "domain/point_batch.h"
#include "io/point_sink.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return SecondsBetween(a, Clock::now());
}

/// Command-line arguments every workload receives.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch_dir;  ///< per-run directory for files and sockets
};

/// The plan the CLI and INGEST ship with (eps 1, k 32, seed 42, the rest
/// resolved automatically from the stream length).
privhp::PrivHPOptions ShippedPlan(uint64_t n);

/// Outcome of one run: operation counts, correctness and named metric
/// values. The runner script attaches units from BENCHMARK.json and
/// checks that every metric the mode requires is present.
class Report {
 public:
  void Set(const std::string& name, double value) { metrics_[name] = value; }
  /// Records one checked operation; a failed check is a failed operation
  /// and makes the run incorrect.
  void Check(bool ok, const std::string& what);
  /// Workload parameters and environment, printed as the record line.
  void Info(const std::string& key, const std::string& value) {
    info_[key] = value;
  }
  void Info(const std::string& key, double value);

  /// Prints the record line and then the result line (the last line of
  /// stdout).
  void Emit() const;

 private:
  std::map<std::string, double> metrics_;
  std::map<std::string, std::string> info_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> failures_;
};

/// A 1-D stream Zipf-skewed over 2^16 equal cells of [0, 1): cell
/// popularity follows Zipf(1.1) over a permutation fixed by the workload
/// definition, and the seed draws which cell and where inside it each
/// point falls. Returned as one staged columnar arena.
privhp::PointBatch ZipfStream(size_t n, uint64_t seed);

/// Hands a staged arena to a consumer in PointBatch slices. Records when
/// the first batch was requested, when end-of-stream was returned and,
/// for the reader-wait metric, the time between one NextBatch returning
/// and the next being called.
class StagedSource : public privhp::PointSource {
 public:
  explicit StagedSource(const privhp::PointBatch* data) : data_(data) {}

  privhp::Result<bool> Next(privhp::Point* out) override;
  using privhp::PointSource::NextBatch;
  privhp::Result<size_t> NextBatch(size_t max_points,
                                   privhp::PointBatch* out) override;

  Clock::time_point first_call() const { return first_call_; }
  Clock::time_point end_of_stream() const { return end_of_stream_; }
  /// Summed gaps between successive NextBatch calls.
  double wait_seconds() const { return wait_s_; }
  uint64_t batches() const { return batches_; }

 private:
  const privhp::PointBatch* data_;
  size_t next_ = 0;
  bool started_ = false;
  Clock::time_point first_call_{};
  Clock::time_point last_return_{};
  Clock::time_point end_of_stream_{};
  double wait_s_ = 0.0;
  uint64_t batches_ = 0;
};

/// Counts points and folds every coordinate's bit pattern into an
/// order-sensitive hash, so two point sequences compare in O(1) memory.
class HashSink : public privhp::PointSink {
 public:
  using privhp::PointSink::Add;
  privhp::Status Add(const privhp::Point& x) override;
  using privhp::PointSink::AddAll;
  privhp::Status AddAll(const privhp::PointBatch& batch) override;
  uint64_t num_processed() const override { return count_; }
  uint64_t hash() const { return hash_; }

 private:
  void Mix(const double* coords, size_t n);

  uint64_t count_ = 0;
  uint64_t hash_ = 0x243f6a8885a308d3ULL;
};

/// Exact quantile of raw samples (linear interpolation between order
/// statistics); 0 for an empty set.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Per-window peak resident memory from the kernel's high-water mark,
/// relative to the RSS at construction (the staged input). Each window
/// starts by resetting VmHWM (/proc/self/clear_refs) and ends by reading
/// it, so nothing polls and the allocator is left alone.
class PeakRss {
 public:
  PeakRss();

  /// Peak MiB above the baseline since the previous window ended; opens
  /// the next window.
  double EndWindow();
  /// False if the kernel refused a high-water-mark reset, in which case
  /// the peaks are peaks since the process began.
  bool ok() const { return ok_; }

 private:
  void Reset();

  uint64_t baseline_ = 0;
  bool ok_ = true;
};

/// Completion events (time, value) of one run, such as each INGEST
/// session's length at its acknowledgement.
using Events = std::vector<std::pair<Clock::time_point, double>>;

/// The measured interval cut into windows (a build cycle, a second of
/// serving), each with the share of the machine's CPU time the hypervisor
/// stole during it. Time-based statistics use the clean windows only:
/// those with at most 2% stolen or, when fewer than half are that clean,
/// the least stolen half. On a shared VM this drops stretches in which the
/// program was not running at all, which no change to the program causes
/// or cures.
class Windows {
 public:
  /// Opens the first window now.
  Windows();

  /// Closes the current window and opens the next.
  void Close();

  /// Exact q-quantile of the values completed in clean windows.
  double Quantile(const Events& samples, double q) const;
  /// The values of clean windows, given one value per window
  /// (per_window[i] belongs to window i).
  std::vector<double> CleanValues(const std::vector<double>& per_window) const;
  double CleanMedian(const std::vector<double>& per_window) const {
    return Median(CleanValues(per_window));
  }

  size_t clean_count() const;
  /// Mean stolen share over the clean windows.
  double clean_steal() const;

 private:
  /// Index of the window \p t falls in, or -1.
  int Find(Clock::time_point t) const;
  std::vector<bool> CleanMask() const;

  std::vector<Clock::time_point> bounds_;  // window i = [bounds_[i], bounds_[i+1])
  std::vector<double> steal_;
  uint64_t last_steal_ = 0;
  uint64_t last_total_ = 0;
};

/// Workload entry points (each fills \p report; false on a setup error
/// that makes the run meaningless).
bool RunBuild(const Args& args, Report* report);
bool RunMixed(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
