#include "service/protocol.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace privhp {
namespace {

TEST(ProtocolTest, SimpleRequestsRoundTrip) {
  auto ping = ParseRequest(EncodePingRequest());
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->op, ServiceOp::kPing);

  auto list = ParseRequest(EncodeListRequest());
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->op, ServiceOp::kList);
}

TEST(ProtocolTest, SampleRequestRoundTrips) {
  auto req = ParseRequest(EncodeSampleRequest("flows", 100000, 77));
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->op, ServiceOp::kSample);
  EXPECT_EQ(req->artifact, "flows");
  EXPECT_EQ(req->m, 100000u);
  EXPECT_EQ(req->seed, 77u);
}

TEST(ProtocolTest, RangeRequestRoundTrips) {
  auto req = ParseRequest(EncodeRangeRequest("geo", 12, (1u << 12) - 1));
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->op, ServiceOp::kRange);
  EXPECT_EQ(req->artifact, "geo");
  EXPECT_EQ(req->level, 12u);
  EXPECT_EQ(req->index, (1u << 12) - 1);
}

TEST(ProtocolTest, QuantileRequestRoundTrips) {
  auto req =
      ParseRequest(EncodeQuantileRequest("latency", {0.5, 0.9, 0.999}));
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->op, ServiceOp::kQuantile);
  EXPECT_EQ(req->qs, (std::vector<double>{0.5, 0.9, 0.999}));
}

TEST(ProtocolTest, HeavyAndExportRoundTrip) {
  auto heavy = ParseRequest(EncodeHeavyRequest("ip", 0.05));
  ASSERT_TRUE(heavy.ok());
  EXPECT_EQ(heavy->op, ServiceOp::kHeavy);
  EXPECT_EQ(heavy->threshold, 0.05);

  auto exp = ParseRequest(EncodeExportRequest("ip"));
  ASSERT_TRUE(exp.ok());
  EXPECT_EQ(exp->op, ServiceOp::kExport);
  EXPECT_EQ(exp->artifact, "ip");
}

TEST(ProtocolTest, IngestRequestRoundTrips) {
  ServiceRequest spec;
  spec.op = ServiceOp::kIngest;
  spec.artifact = "fresh";
  spec.dim = 2;
  spec.epsilon = 0.25;
  spec.k = 64;
  spec.n = 1 << 20;
  spec.seed = 9;
  spec.threads = 4;
  auto req = ParseRequest(EncodeIngestRequest(spec));
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->op, ServiceOp::kIngest);
  EXPECT_EQ(req->artifact, "fresh");
  EXPECT_EQ(req->dim, 2u);
  EXPECT_EQ(req->epsilon, 0.25);
  EXPECT_EQ(req->k, 64u);
  EXPECT_EQ(req->n, uint64_t{1} << 20);
  EXPECT_EQ(req->seed, 9u);
  EXPECT_EQ(req->threads, 4u);
}

TEST(ProtocolTest, MalformedRequestsAreRejected) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("\xff").ok());
  // Truncated: SAMPLE opcode with no fields.
  std::string truncated(1, static_cast<char>(ServiceOp::kSample));
  EXPECT_FALSE(ParseRequest(truncated).ok());
  // Trailing garbage after a valid request.
  std::string trailing = EncodePingRequest() + "x";
  EXPECT_FALSE(ParseRequest(trailing).ok());
}

TEST(ProtocolTest, QuantileCountBeyondPayloadIsRejected) {
  // A tiny frame whose declared quantile count (0xFFFFFFFF) vastly
  // exceeds the bytes it carries must be rejected up front, not drive a
  // multi-GiB reserve().
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(ServiceOp::kQuantile));
  w.PutString("latency");
  w.PutU32(0xFFFFFFFFu);
  w.PutDouble(0.5);
  const auto req = ParseRequest(w.Take());
  ASSERT_FALSE(req.ok());
  EXPECT_TRUE(req.status().IsIOError());
}

TEST(ProtocolTest, ResponsesCarryStatusAndPayload) {
  WireWriter ok = BeginOkResponse();
  ok.PutDouble(0.125);
  const std::string ok_frame = ok.Take();
  WireReader payload;
  ASSERT_TRUE(ParseResponse(ok_frame, &payload).ok());
  EXPECT_EQ(*payload.Double(), 0.125);

  const std::string err_frame =
      EncodeErrorResponse(Status::InvalidArgument("no such artifact"));
  const Status err = ParseResponse(err_frame, &payload);
  EXPECT_TRUE(err.IsInvalidArgument());
  EXPECT_EQ(err.message(), "no such artifact");

  // The last code still decodes as itself; a byte past it is a malformed
  // frame, never an out-of-range StatusCode.
  const Status last =
      ParseResponse(EncodeErrorResponse(Status::IOError("disk")), &payload);
  EXPECT_TRUE(last.IsIOError());
  EXPECT_EQ(last.message(), "disk");
  for (uint8_t code : {uint8_t{7}, uint8_t{255}}) {
    WireWriter w;
    w.PutU8(code);
    w.PutString("forged");
    const Status forged = ParseResponse(w.Take(), &payload);
    EXPECT_TRUE(forged.IsIOError()) << forged.ToString();
    EXPECT_EQ(forged.message(), "malformed response: unknown status code " +
                                    std::to_string(code));
  }
}

}  // namespace
}  // namespace privhp
