// Deterministic fuzz for the byte-level protocol surface: every decoder
// that accepts raw network bytes — ParseRequest (server side),
// ParseResponse (client side), and DecodePointBatch — must turn ANY
// input into a clean Status, never a crash, hang, or unbounded
// allocation. Seeded
// RandomEngine draws keep every case reproducible (a failing seed is a
// regression test by itself), and the whole file runs under the ASan/
// UBSan and TSan CI legs, which is where parser bugs actually surface.
//
// Three layers:
//   1. random bytes at random lengths (pure noise),
//   2. structure-aware mutations of VALID frames (bit flips, truncation,
//      integer-field boundary overwrites, splices) — these reach deep
//      decoder states that noise almost never finds,
//   3. a fixed regression corpus: the huge-count / huge-dim batch
//      headers that once pointed reserve() at ~2^35 elements.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "domain/point_batch.h"
#include "io/socket_point_stream.h"
#include "io/wire_format.h"
#include "service/protocol.h"

namespace privhp {
namespace {

// Runs one payload through every byte-level decoder. The decoders must
// not crash; on success the point-batch decoder must hold exactly the
// coordinates a field-by-field read of the frame yields.
void DriveDecoders(const std::string& payload) {
  // Server request path.
  auto request = ParseRequest(payload);
  (void)request;  // any Status is fine, crashing is not

  // Client response path.
  WireReader reader(payload);
  const Status response = ParseResponse(payload, &reader);
  (void)response;

  // STATS snapshot path (client side of the kStats op). The decoder's
  // BoundedCount discipline must hold against arbitrary bytes.
  WireReader stats_reader(payload);
  auto stats = DecodeStatsSnapshot(&stats_reader);
  (void)stats;

  // Point-frame path. expected_dim = 2 for the protocol-checked flavor,
  // 0 for the unchecked one.
  for (int expected_dim : {0, 2}) {
    PointBatch batch;
    const Status decoded = DecodePointBatch(payload, expected_dim, &batch);
    if (decoded.ok()) {
      // Re-read the frame one field at a time: [tag][count][dim] then
      // count*dim doubles, and nothing after them.
      WireReader fields(payload);
      ASSERT_TRUE(fields.U8().ok());
      auto count = fields.U32();
      auto dim = fields.U32();
      ASSERT_TRUE(count.ok() && dim.ok());
      ASSERT_EQ(batch.size(), *count);
      const size_t n = static_cast<size_t>(*count) * *dim;
      for (size_t j = 0; j < n; ++j) {
        auto value = fields.Double();
        ASSERT_TRUE(value.ok());
        // Compare bitwise, not with operator==: mutated frames can carry
        // NaN coordinates, where == is false even for identical bytes.
        ASSERT_EQ(std::memcmp(batch.data() + j, &*value, sizeof(double)), 0);
      }
      ASSERT_TRUE(fields.ExpectEnd().ok());
    }
  }
}

class RandomBytesFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomBytesFuzzTest, NoiseNeverCrashesAnyDecoder) {
  RandomEngine rng(42000 + GetParam());
  for (int round = 0; round < 64; ++round) {
    const size_t len = rng.UniformInt(300);
    std::string payload(len, '\0');
    for (char& b : payload) {
      b = static_cast<char>(rng.UniformInt(256));
    }
    // Bias half the rounds toward plausible first bytes so decoding gets
    // past the opcode/tag check and into the field parsers.
    if (round % 2 == 0 && !payload.empty()) {
      static const uint8_t kTags[] = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06,
                                      0x07, 0x09, 0x10, 0x20, 0x21, 0x00};
      payload[0] = static_cast<char>(
          kTags[rng.UniformInt(sizeof(kTags))]);
    }
    DriveDecoders(payload);
    if (HasFatalFailure()) {
      FAIL() << "seed " << GetParam() << ", round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBytesFuzzTest, ::testing::Range(0, 8));

// Valid frames of every kind: the mutation corpus.
std::vector<std::string> ValidCorpus() {
  std::vector<std::string> corpus;
  corpus.push_back(EncodePingRequest());
  corpus.push_back(EncodeListRequest());
  corpus.push_back(EncodeSampleRequest("demo", 1000, 7));
  corpus.push_back(EncodeRangeRequest("demo", 3, 5));
  corpus.push_back(EncodeQuantileRequest("demo", {0.1, 0.5, 0.9}));
  corpus.push_back(EncodeHeavyRequest("demo", 0.01));
  corpus.push_back(EncodeExportRequest("demo"));
  corpus.push_back(EncodeStatsRequest());
  corpus.push_back(EncodeAuthRequest("fuzz-token"));
  {
    // A populated stats snapshot, so mutations explore the sparse-bucket
    // decode states (version, counts, names, index/count pairs).
    obs::MetricsRegistry registry;
    registry.GetCounter("op.range.requests")->Add(3);
    registry.GetGauge("server.queue_depth")->Set(1);
    registry.GetHistogram("op.range.latency_ns")->Record(1500);
    registry.GetHistogram("op.range.latency_ns")->Record(90000);
    WireWriter stats;
    EncodeStatsSnapshot(registry.Snapshot(), &stats);
    corpus.push_back(stats.Take());
  }
  ServiceRequest ingest;
  ingest.op = ServiceOp::kIngest;
  ingest.artifact = "demo";
  ingest.dim = 2;
  ingest.epsilon = 0.5;
  ingest.k = 16;
  ingest.n = 4096;
  ingest.threads = 2;
  corpus.push_back(EncodeIngestRequest(ingest));
  corpus.push_back(
      EncodePointBatch(PointBatch::FromPoints({{0.25, 0.75}, {0.5, 0.5}})));
  corpus.push_back(EncodePointStreamEnd(2));
  corpus.push_back(BeginOkResponse().Take());
  corpus.push_back(
      EncodeErrorResponse(Status::InvalidArgument("fuzz probe")));
  return corpus;
}

class MutationFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(MutationFuzzTest, MutatedValidFramesNeverCrashAnyDecoder) {
  RandomEngine rng(73000 + GetParam());
  const std::vector<std::string> corpus = ValidCorpus();
  for (int round = 0; round < 96; ++round) {
    std::string payload = corpus[rng.UniformInt(corpus.size())];
    switch (rng.UniformInt(6)) {
      case 0:  // single bit flip
        if (!payload.empty()) {
          const size_t pos = rng.UniformInt(payload.size());
          payload[pos] = static_cast<char>(
              payload[pos] ^ (1 << rng.UniformInt(8)));
        }
        break;
      case 1:  // truncate
        payload.resize(rng.UniformInt(payload.size() + 1));
        break;
      case 2:  // extend with noise
        for (size_t i = rng.UniformInt(16) + 1; i > 0; --i) {
          payload.push_back(static_cast<char>(rng.UniformInt(256)));
        }
        break;
      case 3: {  // overwrite an aligned u32 with a boundary value
        if (payload.size() >= 4) {
          static const uint32_t kBoundary[] = {0u, 1u, 0x7FFFFFFFu,
                                               0xFFFFFFFFu, 0x80000000u};
          const uint32_t v = kBoundary[rng.UniformInt(5)];
          const size_t pos = rng.UniformInt(payload.size() - 3);
          std::memcpy(&payload[pos], &v, sizeof(v));
        }
        break;
      }
      case 4: {  // splice two corpus entries
        const std::string& other = corpus[rng.UniformInt(corpus.size())];
        const size_t keep = rng.UniformInt(payload.size() + 1);
        payload.resize(keep);
        const size_t from = rng.UniformInt(other.size() + 1);
        payload.append(other, from, std::string::npos);
        break;
      }
      default:  // double mutation: flip then truncate
        if (!payload.empty()) {
          payload[rng.UniformInt(payload.size())] =
              static_cast<char>(rng.UniformInt(256));
          payload.resize(rng.UniformInt(payload.size() + 1));
        }
        break;
    }
    DriveDecoders(payload);
    if (HasFatalFailure()) {
      FAIL() << "seed " << GetParam() << ", round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationFuzzTest, ::testing::Range(0, 8));

// Unmutated valid frames must still decode cleanly after a trip through
// the fuzz driver (guards against a driver that "passes" only because
// everything errors out).
TEST(ProtocolFuzzCorpusTest, ValidFramesStillParse) {
  for (const std::string& payload : ValidCorpus()) {
    DriveDecoders(payload);
  }
  auto ping = ParseRequest(EncodePingRequest());
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->op, ServiceOp::kPing);
  auto stats_req = ParseRequest(EncodeStatsRequest());
  ASSERT_TRUE(stats_req.ok());
  EXPECT_EQ(stats_req->op, ServiceOp::kStats);
  auto sample = ParseRequest(EncodeSampleRequest("demo", 1000, 7));
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->artifact, "demo");
  EXPECT_EQ(sample->m, 1000u);
  EXPECT_EQ(sample->seed, 7u);
  auto auth = ParseRequest(EncodeAuthRequest("fuzz-token"));
  ASSERT_TRUE(auth.ok());
  EXPECT_EQ(auth->op, ServiceOp::kAuth);
  EXPECT_EQ(auth->token, "fuzz-token");
}

// The PR-3 regression corpus: batch headers whose declared count or dim
// outruns the payload must be rejected BEFORE any allocation sized from
// the header — by every decode target, including the columnar arena.
TEST(ProtocolFuzzCorpusTest, HugeHeaderFramesRejectedByAllDecoders) {
  WireWriter huge_count;
  huge_count.PutU8(kPointBatchTag);
  huge_count.PutU32(0xFFFFFFFFu);  // count
  huge_count.PutU32(1);            // dim
  huge_count.PutDouble(0.5);

  WireWriter huge_dim;
  huge_dim.PutU8(kPointBatchTag);
  huge_dim.PutU32(1);              // count
  huge_dim.PutU32(0xFFFFFFFFu);    // dim
  huge_dim.PutDouble(0.5);

  // count*dim overflows 32 bits; the guard must do the math in 64.
  WireWriter overflow;
  overflow.PutU8(kPointBatchTag);
  overflow.PutU32(0x10000u);       // count
  overflow.PutU32(0x10000u);       // dim
  overflow.PutDouble(0.5);

  for (const std::string& payload :
       {huge_count.Take(), huge_dim.Take(), overflow.Take()}) {
    PointBatch batch;
    EXPECT_TRUE(DecodePointBatch(payload, 0, &batch).IsIOError());
    EXPECT_TRUE(batch.empty());
  }
}

// STATS frames whose declared counts outrun the payload must be
// rejected by the BoundedCount guards before any reserve(), and bucket
// indexes past the fixed array must never be used to index it.
TEST(ProtocolFuzzCorpusTest, HugeStatsFramesRejectedBeforeAllocation) {
  WireWriter huge_counters;
  huge_counters.PutU32(kStatsSnapshotVersion);
  huge_counters.PutU32(0xFFFFFFFFu);  // counter count, nothing behind it

  WireWriter huge_buckets;
  huge_buckets.PutU32(kStatsSnapshotVersion);
  huge_buckets.PutU32(0);  // counters
  huge_buckets.PutU32(0);  // gauges
  huge_buckets.PutU32(1);  // one histogram
  huge_buckets.PutString("h");
  huge_buckets.PutU64(0);              // sum
  huge_buckets.PutU64(0);              // max
  huge_buckets.PutU32(0xFFFFFFFFu);    // bucket count, nothing behind it

  WireWriter bad_index;
  bad_index.PutU32(kStatsSnapshotVersion);
  bad_index.PutU32(0);  // counters
  bad_index.PutU32(0);  // gauges
  bad_index.PutU32(1);  // one histogram
  bad_index.PutString("h");
  bad_index.PutU64(10);
  bad_index.PutU64(10);
  bad_index.PutU32(1);                     // one bucket entry
  bad_index.PutU32(obs::kHistogramBuckets);  // first out-of-range index
  bad_index.PutU64(1);

  WireWriter bad_version;
  bad_version.PutU32(kStatsSnapshotVersion + 1);

  for (const std::string& payload :
       {huge_counters.Take(), huge_buckets.Take(), bad_index.Take(),
        bad_version.Take()}) {
    WireReader r(payload);
    auto decoded = DecodeStatsSnapshot(&r);
    EXPECT_FALSE(decoded.ok());
  }
}

}  // namespace
}  // namespace privhp
