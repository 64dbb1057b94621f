// The one framing implementation, FrameReader and FrameWriter, driven
// directly: a frame's header and payload leave together and a short
// write resumes where it stopped; the reader assembles frames across
// any split of the byte stream, takes many frames from one recv, and
// tells a clean EOF from a torn frame.

#include "io/frame_socket.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "testing/frames.h"

namespace privhp {
namespace {

using Event = FrameReader::Event;

void IgnoreSignal(int) {}

void MakeNonBlocking(const Socket& sock) {
  const int flags = ::fcntl(sock.fd(), F_GETFL, 0);
  ASSERT_GE(flags, 0);
  ASSERT_EQ(::fcntl(sock.fd(), F_SETFL, flags | O_NONBLOCK), 0);
}

// The wire bytes of \p payloads framed by a FrameWriter.
std::string WireBytes(const std::vector<std::string>& payloads) {
  auto pair = SocketPair();
  EXPECT_TRUE(pair.ok());
  FrameWriter writer;
  for (const std::string& p : payloads) EXPECT_TRUE(writer.Enqueue(p).ok());
  auto drained = writer.Pump(pair->first);
  EXPECT_TRUE(drained.ok() && *drained);
  pair->first.Close();
  std::string wire;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(pair->second.fd(), chunk, sizeof(chunk), 0);
    EXPECT_GE(n, 0);
    if (n <= 0) break;
    wire.append(chunk, static_cast<size_t>(n));
  }
  return wire;
}

std::string Pattern(size_t size, size_t salt) {
  std::string s(size, '\0');
  for (size_t i = 0; i < size; ++i) {
    s[i] = static_cast<char>((i * 131 + i / 4099 + salt) & 0xff);
  }
  return s;
}

TEST(FrameSocketTest, EmptyFrameIsExactlyItsHeaderOnTheWire) {
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  FrameWriter writer;
  ASSERT_TRUE(writer.Enqueue("").ok());
  auto drained = writer.Pump(pair->first);
  ASSERT_TRUE(drained.ok());
  EXPECT_TRUE(*drained);
  pair->first.Close();

  // Four zero bytes, then EOF: no payload byte, nothing doubled.
  char wire[8];
  size_t got = 0;
  for (;;) {
    const ssize_t n =
        ::recv(pair->second.fd(), wire + got, sizeof(wire) - got, 0);
    ASSERT_GE(n, 0);
    if (n == 0) break;
    got += static_cast<size_t>(n);
  }
  ASSERT_EQ(got, 4u);
  for (size_t i = 0; i < got; ++i) EXPECT_EQ(wire[i], 0) << i;
}

// 4 MiB is many times a socketpair's buffer, so the sender blocks again
// and again while the reader drains. A signal that lands on the blocked
// sender after some bytes went out makes sendmsg return short (the
// handler is installed without SA_RESTART); pumping again must resume
// from the exact byte it stopped at.
TEST(FrameSocketTest, FourMiBFrameArrivesWholeAcrossShortWrites) {
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  const std::string payload = Pattern(4u << 20, 0);

  struct sigaction action = {};
  struct sigaction previous = {};
  action.sa_handler = IgnoreSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  std::atomic<bool> sent{false};
  Status status = Status::OK();
  std::thread sender([&] {
    FrameWriter writer;
    status = writer.Enqueue(payload);
    while (status.ok()) {
      Result<bool> drained = writer.Pump(pair->first);
      if (!drained.ok()) status = drained.status();
      if (!drained.ok() || *drained) break;
    }
    if (status.ok() && writer.pending_bytes() != 0) {
      status = Status::IOError("writer drained with bytes pending");
    }
    sent.store(true);
  });
  std::thread interrupter([&] {
    while (!sent.load()) {
      ::pthread_kill(sender.native_handle(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  FrameReader reader;
  std::string received;
  auto more = testing::ReadFrame(pair->second, &reader, &received);
  interrupter.join();
  sender.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &previous, nullptr), 0);

  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(more.ok()) << more.status().ToString();
  EXPECT_TRUE(*more);
  EXPECT_TRUE(received == payload);
  // Nothing followed the frame.
  pair->first.Close();
  more = testing::ReadFrame(pair->second, &reader, &received);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

// Every split of the byte stream: each byte arrives alone, and the
// reader says kNeedMore until the byte that completes a frame, then
// hands over exactly that frame once.
TEST(FrameSocketTest, ReaderAssemblesFramesFedOneByteAtATime) {
  const std::vector<std::string> payloads = {"", "a", "hello", "",
                                             Pattern(300, 7)};
  const std::string wire = WireBytes(payloads);
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  MakeNonBlocking(pair->second);

  FrameReader reader;
  auto first = reader.Poll(pair->second);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, Event::kNeedMore);

  std::vector<std::string> frames;
  for (size_t i = 0; i < wire.size(); ++i) {
    ASSERT_EQ(::send(pair->first.fd(), wire.data() + i, 1, 0), 1);
    auto event = reader.Poll(pair->second);
    ASSERT_TRUE(event.ok()) << event.status();
    if (*event == Event::kFrame) {
      frames.push_back(reader.frame());
      event = reader.Poll(pair->second);
      ASSERT_TRUE(event.ok()) << event.status();
    }
    ASSERT_EQ(*event, Event::kNeedMore) << "byte " << i;
  }
  EXPECT_EQ(frames, payloads);
  EXPECT_EQ(reader.bytes_received(), wire.size());
  EXPECT_FALSE(reader.has_buffered());

  pair->first.Close();
  auto eof = reader.Poll(pair->second);
  ASSERT_TRUE(eof.ok());
  EXPECT_EQ(*eof, Event::kEof);
}

// A burst of small frames costs one recv: the first Poll reads them all,
// the rest come out of the buffer.
TEST(FrameSocketTest, ReaderTakesManySmallFramesFromOneRecv) {
  std::vector<std::string> payloads;
  for (int i = 0; i < 100; ++i) {
    payloads.push_back("frame " + std::to_string(i));
  }
  const std::string wire = WireBytes(payloads);
  ASSERT_LT(wire.size(), 64u * 1024);
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  MakeNonBlocking(pair->second);
  ASSERT_EQ(::send(pair->first.fd(), wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  FrameReader reader;
  for (size_t i = 0; i < payloads.size(); ++i) {
    auto event = reader.Poll(pair->second);
    ASSERT_TRUE(event.ok()) << event.status();
    ASSERT_EQ(*event, Event::kFrame) << i;
    EXPECT_EQ(reader.frame(), payloads[i]);
    // Every byte came in with the first recv.
    EXPECT_EQ(reader.bytes_received(), wire.size()) << i;
    EXPECT_EQ(reader.has_buffered(), i + 1 < payloads.size()) << i;
  }
  auto drained = reader.Poll(pair->second);
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(*drained, Event::kNeedMore);
}

// A body larger than the 64 KiB read buffer is received straight into
// the frame once the buffer is drained.
TEST(FrameSocketTest, ReaderReceivesALargeBodyWhole) {
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  const std::string big = Pattern(200 * 1024 + 3, 1);
  const std::string after = "after";
  Status sent = Status::OK();
  std::thread sender([&] {
    sent = testing::WriteFrame(pair->first, big);
    if (sent.ok()) sent = testing::WriteFrame(pair->first, after);
  });
  FrameReader reader;
  std::string received;
  auto more = testing::ReadFrame(pair->second, &reader, &received);
  ASSERT_TRUE(more.ok()) << more.status();
  EXPECT_TRUE(*more);
  EXPECT_TRUE(received == big);
  more = testing::ReadFrame(pair->second, &reader, &received);
  sender.join();
  ASSERT_TRUE(sent.ok()) << sent;
  ASSERT_TRUE(more.ok()) << more.status();
  EXPECT_EQ(received, after);
  EXPECT_EQ(reader.bytes_received(), big.size() + after.size() + 8);
}

// What the peer leaves behind before closing: \p bytes, then EOF.
Result<Event> PollAfterClose(const std::string& bytes) {
  auto pair = SocketPair();
  if (!pair.ok()) return pair.status();
  if (!bytes.empty() &&
      ::send(pair->first.fd(), bytes.data(), bytes.size(), 0) !=
          static_cast<ssize_t>(bytes.size())) {
    return Status::IOError("short send in test setup");
  }
  pair->first.Close();
  FrameReader reader;
  for (;;) {
    Result<Event> event = reader.Poll(pair->second);
    if (!event.ok() || *event != Event::kFrame) return event;
  }
}

TEST(FrameSocketTest, ReaderRejectsTornAndOversizedFrames) {
  // A header declaring 2 GiB, past kMaxFrameBytes.
  const uint32_t huge = 2u << 30;
  std::string oversized(4, '\0');
  for (int i = 0; i < 4; ++i) {
    oversized[i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  EXPECT_TRUE(PollAfterClose(oversized).status().IsIOError());

  const std::string wire = WireBytes({"hello"});
  // EOF mid-header, after a whole frame and after none.
  EXPECT_TRUE(PollAfterClose(wire.substr(0, 2)).status().IsIOError());
  EXPECT_TRUE(PollAfterClose(wire + wire.substr(0, 3)).status().IsIOError());
  // EOF mid-body.
  EXPECT_TRUE(PollAfterClose(wire.substr(0, 6)).status().IsIOError());

  // A clean EOF at a frame boundary is kEof, not an error.
  auto clean = PollAfterClose(wire + wire);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(*clean, Event::kEof);
  auto empty = PollAfterClose("");
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(*empty, Event::kEof);
}

// Against a small send buffer a non-blocking writer makes partial
// progress, parks, and resumes at the exact byte it stopped at; the
// frames arrive whole and in order, and pending_bytes() drains to zero.
TEST(FrameSocketTest, WriterResumesShortWritesAtTheRightByte) {
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  const int sndbuf = 4096;
  ASSERT_EQ(::setsockopt(pair->first.fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf,
                         sizeof(sndbuf)),
            0);
  MakeNonBlocking(pair->first);
  MakeNonBlocking(pair->second);

  std::vector<std::string> payloads;
  for (int i = 0; i < 6; ++i) payloads.push_back(Pattern(50000 + i, i));
  payloads.push_back("");
  payloads.push_back("tail");
  FrameWriter writer;
  size_t wire_bytes = 0;
  for (const std::string& p : payloads) {
    ASSERT_TRUE(writer.Enqueue(p).ok());
    wire_bytes += p.size() + 4;
  }
  EXPECT_EQ(writer.pending_bytes(), wire_bytes);

  FrameReader reader;
  std::vector<std::string> received;
  int short_writes = 0;
  size_t last_pending = writer.pending_bytes();
  for (int round = 0; round < 100000 && received.size() < payloads.size();
       ++round) {
    if (!writer.empty()) {
      auto drained = writer.Pump(pair->first);
      ASSERT_TRUE(drained.ok()) << drained.status();
      if (!*drained) ++short_writes;
      EXPECT_LE(writer.pending_bytes(), last_pending);
      EXPECT_EQ(writer.bytes_sent() + writer.pending_bytes(), wire_bytes);
      last_pending = writer.pending_bytes();
    }
    for (;;) {
      auto event = reader.Poll(pair->second);
      ASSERT_TRUE(event.ok()) << event.status();
      if (*event != Event::kFrame) break;
      received.push_back(reader.frame());
    }
  }
  EXPECT_GT(short_writes, 0);
  EXPECT_TRUE(writer.empty());
  EXPECT_EQ(writer.pending_bytes(), 0u);
  EXPECT_EQ(writer.bytes_sent(), wire_bytes);
  ASSERT_EQ(received.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_TRUE(received[i] == payloads[i]) << i;
  }
}

}  // namespace
}  // namespace privhp
