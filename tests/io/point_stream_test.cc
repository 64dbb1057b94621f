#include "io/point_stream.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/random.h"
#include "eval/workloads.h"

namespace privhp {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  out << contents;
}

TEST(ParseCsvPointTest, ParsesWellFormedLines) {
  Point p;
  ASSERT_TRUE(ParseCsvPoint("0.5,0.25", 2, &p).ok());
  ASSERT_EQ(p.size(), 2u);
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[1], 0.25);
  ASSERT_TRUE(ParseCsvPoint("  1e-3 ,  2.5e2 ", 2, &p).ok());
  EXPECT_DOUBLE_EQ(p[0], 1e-3);
  EXPECT_DOUBLE_EQ(p[1], 250.0);
}

TEST(ParseCsvPointTest, RejectsMalformedLines) {
  Point p;
  EXPECT_FALSE(ParseCsvPoint("abc,1", 2, &p).ok());
  EXPECT_FALSE(ParseCsvPoint("0.5", 2, &p).ok());       // too few
  EXPECT_FALSE(ParseCsvPoint("0.5;0.6", 2, &p).ok());   // wrong separator
  EXPECT_FALSE(ParseCsvPoint("0.5,0.6 junk", 2, &p).ok());
}

// Regression: a 3-column file read with dimension 2 used to parse
// cleanly, silently dropping the third column — the classic wrong
// `--dim` footgun. Extra columns must be an error.
TEST(ParseCsvPointTest, RejectsExtraColumns) {
  Point p;
  EXPECT_TRUE(ParseCsvPoint("1,2,3", 2, &p).IsInvalidArgument());
  EXPECT_TRUE(ParseCsvPoint("1,2,3,4", 2, &p).IsInvalidArgument());
  EXPECT_TRUE(ParseCsvPoint("1,2, 3", 2, &p).IsInvalidArgument());
  EXPECT_TRUE(ParseCsvPoint("1,2,x", 2, &p).IsInvalidArgument());
  EXPECT_TRUE(ParseCsvPoint("1,2,,", 2, &p).IsInvalidArgument());
}

TEST(ParseCsvPointTest, AcceptsBareTrailingCommaAndWhitespace) {
  Point p;
  ASSERT_TRUE(ParseCsvPoint("1,2,", 2, &p).ok());  // bare trailing comma
  ASSERT_EQ(p.size(), 2u);
  EXPECT_DOUBLE_EQ(p[1], 2.0);
  EXPECT_TRUE(ParseCsvPoint("1,2 ,", 2, &p).ok());
  EXPECT_TRUE(ParseCsvPoint("1,2,\r", 2, &p).ok());
  EXPECT_TRUE(ParseCsvPoint("1,2, \t", 2, &p).ok());
  EXPECT_TRUE(ParseCsvPoint("1,2 \r", 2, &p).ok());
  EXPECT_TRUE(ParseCsvPoint("1,2\t", 2, &p).ok());
}

// Regression: errno == ERANGE on underflow (a denormal result) was
// treated as malformed, rejecting valid tiny coordinates. Only overflow
// (+-HUGE_VAL) is malformed.
TEST(ParseCsvPointTest, AcceptsUnderflowRejectsOverflow) {
  Point p;
  ASSERT_TRUE(ParseCsvPoint("1e-320,0.5", 2, &p).ok());
  ASSERT_EQ(p.size(), 2u);
  EXPECT_GT(p[0], 0.0);
  EXPECT_LT(p[0], 1e-300);
  ASSERT_TRUE(ParseCsvPoint("1e-400,0.5", 2, &p).ok());  // rounds to 0
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_TRUE(ParseCsvPoint("1e400,0.5", 2, &p).IsInvalidArgument());
  EXPECT_TRUE(ParseCsvPoint("0.5,-1e400", 2, &p).IsInvalidArgument());
}

// 40000 points span two full reads of kDrainBatchSize rows and a tail;
// full-precision output reads back bit for bit.
TEST(CsvRoundTripTest, WriteThenReadPreservesPoints) {
  RandomEngine rng(1);
  const auto points = GenerateUniform(3, 40000, &rng);
  const std::string path = TempPath("points_roundtrip.csv");
  ASSERT_TRUE(WritePointsCsv(path, points).ok());
  auto loaded = ReadPointsCsv(path, 3);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, points);
  std::remove(path.c_str());
}

TEST(CsvPointReaderTest, SkipsCommentsAndBlanks) {
  const std::string path = TempPath("commented.csv");
  WriteFile(path, "# header\n0.1,0.2\n\n   \n# mid comment\n0.3,0.4\n");
  auto reader = CsvPointReader::Open(path, 2);
  ASSERT_TRUE(reader.ok());
  PointBatch batch;
  auto r1 = reader->NextBatch(1, &batch);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r1, 1u);
  EXPECT_DOUBLE_EQ(batch.row(0)[0], 0.1);
  auto r2 = reader->NextBatch(1, &batch);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, 1u);
  EXPECT_DOUBLE_EQ(batch.row(0)[1], 0.4);
  auto r3 = reader->NextBatch(1, &batch);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(*r3, 0u);  // EOF
  std::remove(path.c_str());
}

// The pre-pass of unsized CLI builds: the reads' skip rule, no parsing,
// so a malformed row counts and is left for the read to report, and a
// last line without a newline counts like any other.
TEST(CsvPointReaderTest, CountDataLinesSkipsLikeTheReads) {
  const std::string path = TempPath("counted.csv");
  WriteFile(path, "# header\n0.1,0.2\n\n   \n# mid\nbroken\n  # indented\n0.3");
  auto reader = CsvPointReader::Open(path, 2);
  ASSERT_TRUE(reader.ok());
  auto count = reader->CountDataLines();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 3u);
  EXPECT_EQ(reader->line_number(), 8u);
  std::remove(path.c_str());

  const std::string good = TempPath("counted_good.csv");
  WriteFile(good, "# header\n0.1\n\n0.2\n# mid\n0.3\n");
  auto counter = CsvPointReader::Open(good, 1);
  auto points = ReadPointsCsv(good, 1);
  ASSERT_TRUE(counter.ok() && points.ok());
  auto good_count = counter->CountDataLines();
  ASSERT_TRUE(good_count.ok());
  EXPECT_EQ(*good_count, points->size());
  std::remove(good.c_str());
}

TEST(CsvPointReaderTest, ReportsLineNumberOnError) {
  const std::string path = TempPath("badline.csv");
  WriteFile(path, "0.1,0.2\nbroken\n");
  auto reader = CsvPointReader::Open(path, 2);
  ASSERT_TRUE(reader.ok());
  PointBatch batch;
  ASSERT_TRUE(reader->NextBatch(1, &batch).ok());
  auto bad = reader->NextBatch(1, &batch);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvPointReaderTest, NextBatchReadsChunksAndSkipsComments) {
  const std::string path = TempPath("batched.csv");
  std::string contents = "# header\n";
  for (int i = 0; i < 10; ++i) {
    contents += std::to_string(i * 0.01) + "," + std::to_string(i * 0.02) +
                "\n";
  }
  WriteFile(path, contents);
  auto reader = CsvPointReader::Open(path, 2);
  ASSERT_TRUE(reader.ok());
  PointBatch batch;
  auto r1 = reader->NextBatch(4, &batch);
  ASSERT_TRUE(r1.ok());
  ASSERT_EQ(*r1, 4u);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_DOUBLE_EQ(batch.row(3)[1], 3 * 0.02);
  auto r2 = reader->NextBatch(100, &batch);
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(*r2, 6u);
  ASSERT_EQ(batch.size(), 6u);
  EXPECT_DOUBLE_EQ(batch.row(5)[0], 9 * 0.01);
  auto r3 = reader->NextBatch(100, &batch);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(*r3, 0u);  // EOF
  std::remove(path.c_str());
}

TEST(CsvPointReaderTest, NextBatchReportsLineNumberOnError) {
  const std::string path = TempPath("badbatch.csv");
  WriteFile(path, "0.1,0.2\n0.3,0.4\nbroken\n");
  auto reader = CsvPointReader::Open(path, 2);
  ASSERT_TRUE(reader.ok());
  PointBatch batch;
  auto bad = reader->NextBatch(100, &batch);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 3"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvPointReaderTest, MissingFileFails) {
  EXPECT_TRUE(
      CsvPointReader::Open("/no/such/file.csv", 1).status().IsIOError());
  EXPECT_FALSE(CsvPointReader::Open("/dev/null", 0).ok());
}

TEST(Ipv4TraceFileTest, ParsesAddresses) {
  const std::string path = TempPath("trace.txt");
  WriteFile(path, "# trace\n10.0.0.1\n192.168.1.77\n");
  auto points = ReadIpv4TraceFile(path);
  ASSERT_TRUE(points.ok()) << points.status();
  ASSERT_EQ(points->size(), 2u);
  std::remove(path.c_str());
}

TEST(Ipv4TraceFileTest, RejectsGarbageWithLineNumber) {
  const std::string path = TempPath("badtrace.txt");
  WriteFile(path, "10.0.0.1\nnot-an-ip\n");
  auto points = ReadIpv4TraceFile(path);
  ASSERT_FALSE(points.ok());
  EXPECT_NE(points.status().message().find("line 2"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace privhp
