#include "io/socket_point_stream.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <deque>
#include <thread>
#include <vector>

#include "io/frame_socket.h"
#include "io/point_sink.h"
#include "io/wire_format.h"
#include "testing/frames.h"

namespace privhp {
namespace {

using testing::ReadFrame;
using testing::SocketReceiver;
using testing::SocketSender;
using testing::WriteFrame;

TEST(WireFormatTest, RoundTripsScalars) {
  WireWriter w;
  w.PutU8(0xab);
  w.PutU32(0xdeadbeefu);
  w.PutU64(0x0123456789abcdefULL);
  w.PutDouble(-1.5e-7);
  w.PutString("privhp");

  WireReader r(w.str());
  EXPECT_EQ(*r.U8(), 0xab);
  EXPECT_EQ(*r.U32(), 0xdeadbeefu);
  EXPECT_EQ(*r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(*r.Double(), -1.5e-7);
  EXPECT_EQ(*r.String(), "privhp");
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(WireFormatTest, TruncatedReadsFailCleanly) {
  WireWriter w;
  w.PutU32(7);
  WireReader r(w.str());
  EXPECT_TRUE(r.U64().status().IsIOError());

  // A declared string length larger than the buffer must not read past it.
  WireWriter lying;
  lying.PutU32(1000);
  lying.PutBytes("abc", 3);
  WireReader r2(lying.str());
  EXPECT_TRUE(r2.String().status().IsIOError());

  WireReader empty;
  EXPECT_TRUE(empty.U8().status().IsIOError());
}

TEST(FrameSocketTest, FramesRoundTripOverSocketPair) {
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(WriteFrame(pair->first, "hello").ok());
  ASSERT_TRUE(WriteFrame(pair->first, "").ok());

  FrameReader reader;
  std::string payload;
  auto more = ReadFrame(pair->second, &reader, &payload);
  ASSERT_TRUE(more.ok());
  EXPECT_TRUE(*more);
  EXPECT_EQ(payload, "hello");
  more = ReadFrame(pair->second, &reader, &payload);
  ASSERT_TRUE(more.ok());
  EXPECT_TRUE(*more);
  EXPECT_EQ(payload, "");

  // Clean EOF at a frame boundary is `false`, not an error.
  pair->first.Close();
  more = ReadFrame(pair->second, &reader, &payload);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

TEST(FrameSocketTest, OversizedFrameLengthIsRejected) {
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  // Hand-craft a header declaring 2 GiB.
  const uint32_t huge = 2u << 30;
  std::string header(4, '\0');
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  ASSERT_EQ(::send(pair->first.fd(), header.data(), 4, 0), 4);
  FrameReader reader;
  std::string payload;
  EXPECT_TRUE(ReadFrame(pair->second, &reader, &payload).status().IsIOError());
}

TEST(SocketPointStreamTest, SinkToSourceRoundTrip) {
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  std::vector<Point> sent;
  for (int i = 0; i < 1000; ++i) {
    sent.push_back({i / 1000.0, 1.0 - i / 1000.0});
  }

  // Small batch size forces multiple frames; the writer runs in a thread
  // so the test does not rely on socket buffering for large streams.
  std::thread writer([&]() {
    SocketPointSink sink(SocketSender(&pair->first), /*batch_size=*/64);
    ASSERT_TRUE(sink.AddAll(PointBatch::FromPoints(sent)).ok());
    ASSERT_TRUE(sink.FinishStream().ok());
    EXPECT_EQ(sink.num_processed(), sent.size());
  });

  SocketPointSource source(SocketReceiver(&pair->second), /*expected_dim=*/2);
  CollectingSink received;
  EXPECT_TRUE(Drain(&source, &received).ok());
  writer.join();
  EXPECT_EQ(received.points(), sent);
  EXPECT_TRUE(source.finished());
  EXPECT_EQ(source.num_received(), sent.size());

  // The source stays at end-of-stream.
  PointBatch batch;
  auto more = source.NextBatch(8, &batch);
  ASSERT_TRUE(more.ok());
  EXPECT_EQ(*more, 0u);
}

TEST(SocketPointStreamTest, NextBatchHandsOverWholeFrames) {
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  std::vector<Point> sent;
  for (int i = 0; i < 500; ++i) {
    sent.push_back({i / 500.0});
  }

  std::thread writer([&]() {
    SocketPointSink sink(SocketSender(&pair->first), /*batch_size=*/100);
    ASSERT_TRUE(sink.AddAll(PointBatch::FromPoints(sent)).ok());
    ASSERT_TRUE(sink.FinishStream().ok());
  });

  SocketPointSource source(SocketReceiver(&pair->second), /*expected_dim=*/1);
  std::vector<Point> received;
  PointBatch batch;
  std::vector<size_t> batch_sizes;
  for (;;) {
    auto n = source.NextBatch(/*max_points=*/8, &batch);
    ASSERT_TRUE(n.ok()) << n.status();
    if (*n == 0) break;
    batch_sizes.push_back(*n);
    batch.CopyTo(&received);
  }
  writer.join();
  EXPECT_EQ(received, sent);
  EXPECT_TRUE(source.finished());
  EXPECT_EQ(source.num_received(), sent.size());
  // max_points is advisory: a whole 100-point frame comes through as one
  // batch rather than being re-staged into 8-point slices.
  for (size_t n : batch_sizes) EXPECT_EQ(n, 100u);
}

TEST(SocketPointStreamTest, NextBatchVerifiesStreamTotal) {
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  const PointBatch sent = PointBatch::FromPoints({{0.1}, {0.2}, {0.3}});
  ASSERT_TRUE(WriteFrame(pair->first, EncodePointBatch(sent)).ok());
  // Lying end frame: declares 5 but delivered 3.
  ASSERT_TRUE(WriteFrame(pair->first, EncodePointStreamEnd(5)).ok());

  SocketPointSource source(SocketReceiver(&pair->second), /*expected_dim=*/1);
  PointBatch batch;
  // A full arena returns before the end frame is read; the next call
  // reads it and checks the total.
  auto n = source.NextBatch(3, &batch);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
  EXPECT_TRUE(source.NextBatch(3, &batch).status().IsIOError());
}

// ---- Coalescing: the columnar NextBatch fills the arena from
// consecutive frames, so a consumer sees full 16K windows whatever
// frame size the sender chose.

constexpr size_t kArena = 16384;

// A source over a scripted sequence of frame payloads (the server's
// ingest channel, minus the reactor).
class ScriptedFrames {
 public:
  void Batch(size_t count, int dim = 1) {
    PointBatch batch(dim);
    for (size_t i = 0; i < count; ++i) {
      Point p(dim, static_cast<double>(next_ % 1000) / 1000.0);
      ++next_;
      batch.AppendPoint(p);
    }
    frames_.push_back(EncodePointBatch(batch));
  }
  void End(uint64_t total) { frames_.push_back(EncodePointStreamEnd(total)); }
  uint64_t sent() const { return next_; }

  FrameRecvFn Recv() {
    return [this](std::string* payload) -> Result<bool> {
      if (frames_.empty()) return false;
      *payload = std::move(frames_.front());
      frames_.pop_front();
      return true;
    };
  }

 private:
  std::deque<std::string> frames_;
  uint64_t next_ = 0;
};

TEST(SocketPointStreamTest, NextBatchCoalescesSmallFramesIntoFullArenas) {
  ScriptedFrames script;
  for (int i = 0; i < 300; ++i) script.Batch(64);  // 19,200 points
  script.End(script.sent());
  SocketPointSource source(script.Recv(), /*expected_dim=*/1);
  PointBatch batch;
  std::vector<size_t> sizes;
  std::vector<double> received;
  for (;;) {
    auto n = source.NextBatch(kArena, &batch);
    ASSERT_TRUE(n.ok()) << n.status();
    if (*n == 0) break;
    ASSERT_EQ(batch.size(), *n);
    sizes.push_back(*n);
    received.insert(received.end(), batch.data(), batch.data() + *n);
  }
  EXPECT_EQ(sizes, (std::vector<size_t>{kArena, 19200 - kArena}));
  ASSERT_EQ(received.size(), 19200u);
  for (size_t i = 0; i < received.size(); ++i) {
    ASSERT_EQ(received[i], static_cast<double>(i % 1000) / 1000.0) << i;
  }
  EXPECT_TRUE(source.finished());
  EXPECT_EQ(source.num_received(), 19200u);
  EXPECT_EQ(source.num_batches(), 300u);
}

// The end frame arriving mid-arena ends the batch early; its declared
// total counts the frames decoded into this very arena.
TEST(SocketPointStreamTest, EndFrameMidCoalesceChecksTheTotal) {
  for (uint64_t declared : {uint64_t{640}, uint64_t{641}, uint64_t{576}}) {
    ScriptedFrames script;
    for (int i = 0; i < 10; ++i) script.Batch(64);
    script.End(declared);
    SocketPointSource source(script.Recv(), /*expected_dim=*/1);
    PointBatch batch;
    auto n = source.NextBatch(kArena, &batch);
    if (declared != 640) {
      EXPECT_TRUE(n.status().IsIOError()) << declared;
      EXPECT_FALSE(source.finished());
      continue;
    }
    ASSERT_TRUE(n.ok()) << n.status();
    EXPECT_EQ(*n, 640u);
    EXPECT_TRUE(source.finished());
    auto tail = source.NextBatch(kArena, &batch);
    ASSERT_TRUE(tail.ok());
    EXPECT_EQ(*tail, 0u);
  }
}

// A frame is never split: one larger than the arena goes through whole,
// and so does the frame that carries a part-filled arena past it.
TEST(SocketPointStreamTest, FrameLargerThanTheArenaGoesThroughWhole) {
  ScriptedFrames script;
  script.Batch(20000);
  script.Batch(64);
  script.Batch(20000);
  script.End(script.sent());
  SocketPointSource source(script.Recv(), /*expected_dim=*/1);
  PointBatch batch;
  std::vector<size_t> sizes;
  for (;;) {
    auto n = source.NextBatch(kArena, &batch);
    ASSERT_TRUE(n.ok()) << n.status();
    if (*n == 0) break;
    sizes.push_back(*n);
  }
  EXPECT_EQ(sizes, (std::vector<size_t>{20000, 20064}));
  EXPECT_EQ(source.num_received(), 40064u);
}

TEST(SocketPointStreamTest, EmptyFramesBetweenFullOnesAreSkipped) {
  ScriptedFrames script;
  script.Batch(64);
  script.Batch(0);
  script.Batch(64);
  script.Batch(0);
  script.Batch(0);
  script.Batch(64);
  script.End(192);
  SocketPointSource source(script.Recv(), /*expected_dim=*/1);
  PointBatch batch;
  auto n = source.NextBatch(kArena, &batch);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 192u);
  EXPECT_EQ(batch.size(), 192u);
  EXPECT_TRUE(source.finished());
  EXPECT_EQ(source.num_batches(), 6u);
}

// A frame of another dimension arriving mid-arena is rejected, both by
// a source that expects a dimension and by one that takes it from the
// first frame (the arena check).
TEST(SocketPointStreamTest, MismatchedDimensionMidArenaIsRejected) {
  for (int expected_dim : {1, 0}) {
    ScriptedFrames script;
    script.Batch(64, 1);
    script.Batch(64, 1);
    script.Batch(64, 2);
    script.Batch(64, 1);
    script.End(256);
    SocketPointSource source(script.Recv(), expected_dim);
    PointBatch batch;
    auto n = source.NextBatch(kArena, &batch);
    EXPECT_TRUE(n.status().IsInvalidArgument())
        << "expected_dim " << expected_dim << ": " << n.status();
  }
}

TEST(SocketPointStreamTest, DimensionMismatchIsAnError) {
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  SocketPointSink sink(SocketSender(&pair->first), 8);
  ASSERT_TRUE(sink.AddAll(PointBatch::FromPoints({{0.5, 0.5}})).ok());
  ASSERT_TRUE(sink.Flush().ok());

  SocketPointSource source(SocketReceiver(&pair->second), /*expected_dim=*/1);
  PointBatch batch;
  EXPECT_TRUE(source.NextBatch(8, &batch).status().IsInvalidArgument());
}

TEST(SocketPointStreamTest, BatchHeaderBeyondPayloadIsRejected) {
  // A batch header declaring a huge count or dim that the payload cannot
  // possibly carry must fail before any reserve() sized from it.
  WireWriter huge_count;
  huge_count.PutU8(kPointBatchTag);
  huge_count.PutU32(0xFFFFFFFFu);  // count
  huge_count.PutU32(1);            // dim
  huge_count.PutDouble(0.5);
  PointBatch out;
  EXPECT_TRUE(DecodePointBatch(huge_count.Take(), /*expected_dim=*/1, &out)
                  .IsIOError());

  // With expected_dim <= 0 the dim check is skipped, so the payload bound
  // is the only guard against an absurd declared dimension.
  WireWriter huge_dim;
  huge_dim.PutU8(kPointBatchTag);
  huge_dim.PutU32(1);              // count
  huge_dim.PutU32(0xFFFFFFFFu);    // dim
  huge_dim.PutDouble(0.5);
  EXPECT_TRUE(DecodePointBatch(huge_dim.Take(), /*expected_dim=*/0, &out)
                  .IsIOError());
  EXPECT_TRUE(out.empty());
}

TEST(SocketPointStreamTest, TruncatedStreamIsAnError) {
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  {
    SocketPointSink sink(SocketSender(&pair->first), 8);
    ASSERT_TRUE(sink.AddAll(PointBatch::FromPoints({{0.25}})).ok());
    ASSERT_TRUE(sink.Flush().ok());
    // No end frame: the connection just drops.
    pair->first.Close();
  }
  SocketPointSource source(SocketReceiver(&pair->second), 1);
  PointBatch batch;
  auto first = source.NextBatch(1, &batch);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 1u);
  EXPECT_TRUE(source.NextBatch(1, &batch).status().IsIOError());
}

TEST(SocketPointStreamTest, EndFrameTotalIsVerified) {
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  const PointBatch points = PointBatch::FromPoints({{0.1}, {0.2}});
  ASSERT_TRUE(WriteFrame(pair->first, EncodePointBatch(points)).ok());
  // Lie about the total.
  ASSERT_TRUE(WriteFrame(pair->first, EncodePointStreamEnd(5)).ok());

  SocketPointSource source(SocketReceiver(&pair->second), 1);
  PointBatch batch;
  EXPECT_EQ(*source.NextBatch(2, &batch), 2u);
  EXPECT_TRUE(source.NextBatch(2, &batch).status().IsIOError());
}

TEST(SocketPointStreamTest, FinishedSinkRejectsFurtherPoints) {
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  SocketPointSink sink(SocketSender(&pair->first), 8);
  ASSERT_TRUE(sink.FinishStream().ok());
  EXPECT_TRUE(sink.AddAll(PointBatch::FromPoints({{0.5}}))
                  .IsFailedPrecondition());
  EXPECT_TRUE(sink.FinishStream().IsFailedPrecondition());
}

// Listeners are non-blocking: wait for the peer, then AcceptReady.
Result<Socket> AcceptOne(const Socket& listener) {
  for (;;) {
    bool would_block = false;
    Result<Socket> conn = AcceptReady(listener, &would_block);
    if (!conn.ok() || !would_block) return conn;
    testing::WaitUntilReady(listener, POLLIN);
  }
}

TEST(FrameSocketTest, TcpListenConnectRoundTrip) {
  uint16_t port = 0;
  auto listener = ListenTcp("127.0.0.1", 0, &port);
  ASSERT_TRUE(listener.ok());
  ASSERT_GT(port, 0);

  std::thread client([&]() {
    auto conn = ConnectTcp("127.0.0.1", port);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(WriteFrame(*conn, "over tcp").ok());
  });
  auto accepted = AcceptOne(*listener);
  ASSERT_TRUE(accepted.ok());
  FrameReader reader;
  std::string payload;
  auto more = ReadFrame(*accepted, &reader, &payload);
  client.join();
  ASSERT_TRUE(more.ok());
  EXPECT_TRUE(*more);
  EXPECT_EQ(payload, "over tcp");
}

TEST(FrameSocketTest, UnixListenConnectRoundTrip) {
  const std::string path = ::testing::TempDir() + "/fs_rt.sock";
  auto listener = ListenUnix(path);
  ASSERT_TRUE(listener.ok());

  std::thread client([&]() {
    auto conn = ConnectUnix(path);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(WriteFrame(*conn, "over unix").ok());
  });
  auto accepted = AcceptOne(*listener);
  ASSERT_TRUE(accepted.ok());
  FrameReader reader;
  std::string payload;
  auto more = ReadFrame(*accepted, &reader, &payload);
  client.join();
  ASSERT_TRUE(more.ok());
  EXPECT_TRUE(*more);
  EXPECT_EQ(payload, "over unix");
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace privhp
