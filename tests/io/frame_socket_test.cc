// SendFrame's one-sendmsg write: the header and payload leave together,
// and a short write resumes where it stopped.

#include "io/frame_socket.h"

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

namespace privhp {
namespace {

void IgnoreSignal(int) {}

TEST(FrameSocketTest, EmptyFrameIsExactlyItsHeaderOnTheWire) {
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SendFrame(pair->first, "").ok());
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
// handler is installed without SA_RESTART); SendFrame must resume from
// the exact byte it stopped at.
TEST(FrameSocketTest, FourMiBFrameArrivesWholeAcrossShortWrites) {
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  std::string payload(4u << 20, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 131 + i / 4099) & 0xff);
  }

  struct sigaction action = {};
  struct sigaction previous = {};
  action.sa_handler = IgnoreSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  std::atomic<bool> sent{false};
  Status status = Status::OK();
  std::thread sender([&] {
    status = SendFrame(pair->first, payload);
    sent.store(true);
  });
  std::thread interrupter([&] {
    while (!sent.load()) {
      ::pthread_kill(sender.native_handle(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::string received;
  auto more = RecvFrame(pair->second, &received);
  interrupter.join();
  sender.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &previous, nullptr), 0);

  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(more.ok()) << more.status().ToString();
  EXPECT_TRUE(*more);
  EXPECT_TRUE(received == payload);
  // Nothing followed the frame.
  pair->first.Close();
  more = RecvFrame(pair->second, &received);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

}  // namespace
}  // namespace privhp
