#include "io/point_stream.h"

#include <cerrno>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/macros.h"
#include "domain/ipv4_domain.h"

namespace privhp {

namespace {

bool IsSkippable(const std::string& line) {
  for (char c : line) {
    if (c == '#') return true;
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;  // blank
}

}  // namespace

Status ParseCsvPoint(const std::string& line, int dimension, Point* out) {
  out->clear();
  out->reserve(dimension);
  const char* cursor = line.c_str();
  for (int c = 0; c < dimension; ++c) {
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(cursor, &end);
    if (end == cursor) {
      return Status::InvalidArgument("malformed coordinate " +
                                     std::to_string(c) + " in line '" +
                                     line + "'");
    }
    // ERANGE covers both overflow (result is +-HUGE_VAL) and underflow
    // (result rounds to a denormal or zero). Only overflow is malformed:
    // a tiny-but-representable coordinate like 1e-320 is valid input.
    if (errno == ERANGE && std::abs(value) == HUGE_VAL) {
      return Status::InvalidArgument("coordinate " + std::to_string(c) +
                                     " overflows double in line '" + line +
                                     "'");
    }
    out->push_back(value);
    cursor = end;
    while (*cursor == ' ' || *cursor == '\t') ++cursor;
    if (c + 1 < dimension) {
      if (*cursor != ',') {
        return Status::InvalidArgument("expected ',' after coordinate " +
                                       std::to_string(c) + " in line '" +
                                       line + "'");
      }
      ++cursor;
    }
  }
  // After the last coordinate: at most one bare trailing comma, then only
  // whitespace/CR to end of line. Anything after that comma is an extra
  // column — erroring (instead of silently dropping it) catches a file
  // read with the wrong --dim.
  while (*cursor == ' ' || *cursor == '\t' || *cursor == '\r') ++cursor;
  if (*cursor == ',') {
    ++cursor;
    while (*cursor == ' ' || *cursor == '\t' || *cursor == '\r') ++cursor;
    if (*cursor != '\0') {
      return Status::InvalidArgument(
          "line '" + line + "' has more than " + std::to_string(dimension) +
          " columns");
    }
  }
  if (*cursor != '\0') {
    return Status::InvalidArgument("trailing garbage in line '" + line +
                                   "'");
  }
  return Status::OK();
}

CsvPointReader::CsvPointReader(std::ifstream in, int dimension)
    : in_(std::move(in)), dimension_(dimension) {}

Result<CsvPointReader> CsvPointReader::Open(const std::string& path,
                                            int dimension) {
  if (dimension < 1) {
    return Status::InvalidArgument("dimension must be >= 1");
  }
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open: " + path);
  return CsvPointReader(std::move(in), dimension);
}

Result<bool> CsvPointReader::NextDataLine() {
  while (std::getline(in_, line_)) {
    ++line_number_;
    if (!IsSkippable(line_)) return true;
  }
  if (in_.bad()) return Status::IOError("read failure");
  return false;
}

Result<bool> CsvPointReader::ReadLineInto(Point* out) {
  PRIVHP_ASSIGN_OR_RETURN(bool more, NextDataLine());
  if (!more) return false;
  const Status parsed = ParseCsvPoint(line_, dimension_, out);
  if (!parsed.ok()) {
    return Status::InvalidArgument(parsed.message() + " (line " +
                                   std::to_string(line_number_) + ")");
  }
  return true;
}

Result<uint64_t> CsvPointReader::CountDataLines() {
  uint64_t count = 0;
  for (;;) {
    PRIVHP_ASSIGN_OR_RETURN(bool more, NextDataLine());
    if (!more) return count;
    ++count;
  }
}

Result<bool> CsvPointReader::Next(Point* out) { return ReadLineInto(out); }

Result<size_t> CsvPointReader::NextBatch(size_t max_points,
                                         PointBatch* out) {
  out->Reset(dimension_);
  out->Reserve(max_points);
  Point scratch;
  size_t n = 0;
  while (n < max_points) {
    PRIVHP_ASSIGN_OR_RETURN(bool more, ReadLineInto(&scratch));
    if (!more) break;
    out->AppendPoint(scratch);
    ++n;
  }
  return n;
}

Result<std::vector<Point>> ReadPointsCsv(const std::string& path,
                                         int dimension) {
  PRIVHP_ASSIGN_OR_RETURN(CsvPointReader reader,
                          CsvPointReader::Open(path, dimension));
  std::vector<Point> points;
  Point x;
  for (;;) {
    PRIVHP_ASSIGN_OR_RETURN(bool more, reader.Next(&x));
    if (!more) break;
    points.push_back(std::move(x));
  }
  return points;
}

CsvPointWriter::CsvPointWriter(std::ofstream out) : out_(std::move(out)) {
  out_.precision(std::numeric_limits<double>::max_digits10);
}

Result<CsvPointWriter> CsvPointWriter::Open(const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  return CsvPointWriter(std::move(out));
}

Status CsvPointWriter::Add(const Point& x) {
  for (size_t c = 0; c < x.size(); ++c) {
    if (c) out_ << ",";
    out_ << x[c];
  }
  out_ << "\n";
  if (!out_.good()) return Status::IOError("write failure");
  ++num_written_;
  return Status::OK();
}

Status CsvPointWriter::AddAll(const PointBatch& batch) {
  const size_t n = batch.size();
  const int d = batch.dim();
  for (size_t i = 0; i < n; ++i) {
    const double* row = batch.row(i);
    for (int c = 0; c < d; ++c) {
      if (c) out_ << ",";
      out_ << row[c];
    }
    out_ << "\n";
    if (!out_.good()) return Status::IOError("write failure");
    ++num_written_;
  }
  return Status::OK();
}

Status CsvPointWriter::Close() {
  out_.flush();
  if (!out_.good()) return Status::IOError("write failure on close");
  out_.close();
  return Status::OK();
}

Status WritePointsCsv(const std::string& path,
                      const std::vector<Point>& points) {
  PRIVHP_ASSIGN_OR_RETURN(CsvPointWriter writer, CsvPointWriter::Open(path));
  for (const Point& x : points) PRIVHP_RETURN_NOT_OK(writer.Add(x));
  return writer.Close();
}

Result<std::vector<Point>> ReadIpv4TraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open: " + path);
  std::vector<Point> points;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (IsSkippable(line)) continue;
    // Trim trailing whitespace/CR.
    while (!line.empty() &&
           std::isspace(static_cast<unsigned char>(line.back()))) {
      line.pop_back();
    }
    auto address = Ipv4Domain::ParseAddress(line);
    if (!address.ok()) {
      return Status::InvalidArgument(address.status().message() +
                                     " (line " +
                                     std::to_string(line_number) + ")");
    }
    points.push_back(Ipv4Domain::FromAddress(*address));
  }
  return points;
}

}  // namespace privhp
