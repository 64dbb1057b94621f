// Reading and writing point streams.
//
// Deployments feed PrivHP from files or pipes; this module provides a
// streaming CSV reader (points never need to be materialized — the whole
// point of a bounded-memory builder), batch helpers, and an IPv4
// dotted-quad trace reader for the networking examples.
//
// CSV dialect: one point per line, coordinates separated by commas;
// blank lines and lines starting with '#' are skipped.

#ifndef PRIVHP_IO_POINT_STREAM_H_
#define PRIVHP_IO_POINT_STREAM_H_

#include <fstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "domain/domain.h"
#include "io/point_sink.h"

namespace privhp {

/// \brief Streaming CSV point reader (a PointSource: feed it to any
/// PointSink with Drain, or to PrivHPBuilder::BuildParallel).
class CsvPointReader : public PointSource {
 public:
  /// \brief Opens \p path expecting \p dimension coordinates per line.
  static Result<CsvPointReader> Open(const std::string& path, int dimension);

  /// \brief Parses up to \p max_points lines through one reused scratch
  /// point into the arena, so a file -> shard pipeline allocates nothing
  /// per point once the scratch capacities warm up. 0 at EOF; a
  /// malformed line is an error Status carrying its line number.
  Result<size_t> NextBatch(size_t max_points, PointBatch* out) override;

  /// \brief Lines consumed so far (including skipped ones).
  size_t line_number() const { return line_number_; }

  /// \brief Reads to the end of the file and returns how many data lines
  /// (lines the dialect does not skip) it passed, without parsing them:
  /// the point count of a well-formed file, for a stream horizon taken
  /// before the real read. Malformed lines count too; the read reports
  /// them.
  Result<uint64_t> CountDataLines();

 private:
  CsvPointReader(std::ifstream in, int dimension);

  /// Advances line_ to the next line the dialect does not skip; false at
  /// the end of the file. The one place the skip rule is applied, so
  /// CountDataLines and the reads cannot disagree on what a point is.
  Result<bool> NextDataLine();

  std::ifstream in_;
  int dimension_;
  std::string line_;  // getline scratch
  size_t line_number_ = 0;
};

/// \brief Reads an entire CSV file of points.
Result<std::vector<Point>> ReadPointsCsv(const std::string& path,
                                         int dimension);

/// \brief Streaming CSV point writer (a PointSink): points are written as
/// they arrive, so producing an m-point synthetic dataset needs O(1)
/// memory — the serve side of the pipeline stays bounded like the build
/// side. Byte-compatible with WritePointsCsv.
class CsvPointWriter : public PointSink {
 public:
  static Result<CsvPointWriter> Open(const std::string& path);

  /// \brief Writes arena rows without staging a Point per row.
  Status AddAll(const PointBatch& batch) override;
  uint64_t num_processed() const override { return num_written_; }

  /// \brief Flushes and reports any deferred stream error.
  Status Close();

 private:
  explicit CsvPointWriter(std::ofstream out);

  std::ofstream out_;
  uint64_t num_written_ = 0;
};

/// \brief Writes points as CSV (full precision).
Status WritePointsCsv(const std::string& path,
                      const std::vector<Point>& points);

/// \brief Reads one dotted-quad IPv4 address per line into
/// Ipv4Domain-normalized points ('#' comments and blanks skipped).
Result<std::vector<Point>> ReadIpv4TraceFile(const std::string& path);

/// \brief Parses one CSV line into \p out (used by the reader; exposed
/// for tests and other line-oriented sources).
Status ParseCsvPoint(const std::string& line, int dimension, Point* out);

}  // namespace privhp

#endif  // PRIVHP_IO_POINT_STREAM_H_
