// Worker write-through coverage for the event-loop server.
//
// A non-streaming reply that is its connection's only output, with no
// pipelined request behind it, is written by the worker that finished
// it (server.replies_written_by_worker counts those); everything else
// goes out through the reactor. Under test: the answers are the
// in-process ones, the counter moves once per such reply and never for
// a reply the socket did not take at once, a paused pipeline is still
// woken up, peers that vanish mid-request leave nothing open, and a
// worker's write restarts the idle clock just as a reactor flush does.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/builder.h"
#include "core/queries.h"
#include "domain/interval_domain.h"
#include "io/frame_socket.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "testing/frames.h"

namespace privhp {
namespace {

constexpr uint64_t kAbsent = ~uint64_t{0};

// Polls \p pred every millisecond until it holds or \p timeout_ms
// elapses.
bool WaitFor(const std::function<bool()>& pred, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// Hands out \p batches one-point batches, pausing before each, so an
// INGEST fed from it holds its worker for about batches * pause.
class SlowSource : public PointSource {
 public:
  SlowSource(int batches, std::chrono::milliseconds pause)
      : left_(batches), pause_(pause) {}

  Result<size_t> NextBatch(size_t, PointBatch* out) override {
    out->Reset(1);
    if (left_ == 0) return size_t{0};
    std::this_thread::sleep_for(pause_);
    --left_;
    const double x = 0.25;
    out->AppendFlat(&x, 1);
    return size_t{1};
  }

 private:
  int left_;
  std::chrono::milliseconds pause_;
};

// A registry with one 1-D artifact, "beta", and a copy of its tree for
// in-process reference answers; each test starts its own server.
class WriteThroughTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ = ::testing::TempDir() + "/wt_" +
                   std::to_string(::getpid()) + "_" +
                   ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name() +
                   ".sock";
    auto domain = std::make_unique<IntervalDomain>();
    PrivHPOptions options;
    options.expected_n = 4000;
    options.seed = 42;
    auto builder = PrivHPBuilder::Make(domain.get(), options);
    ASSERT_TRUE(builder.ok());
    RandomEngine rng(7);
    for (int i = 0; i < 4000; ++i) {
      ASSERT_TRUE(
          builder->Add({rng.UniformDouble() * rng.UniformDouble()}).ok());
    }
    auto generator = std::move(*builder).Finish();
    ASSERT_TRUE(generator.ok());
    tree_ = std::make_unique<PartitionTree>(generator->tree());
    ASSERT_TRUE(registry_
                    .Publish("beta", ServedArtifact::Make(
                                         std::move(domain),
                                         std::move(*generator), "test"))
                    .ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    std::remove(socket_path_.c_str());
  }

  void StartServer(ServerOptions options) {
    options.unix_path = socket_path_;
    auto server = PrivHPServer::Start(&registry_, options);
    ASSERT_TRUE(server.ok());
    server_ = std::move(*server);
  }

  Result<PrivHPClient> Connect() {
    return PrivHPClient::ConnectUnix(socket_path_);
  }

  uint64_t Counter(const std::string& name) const {
    return server_->StatsSnapshot().CounterOr(name, kAbsent);
  }

  uint64_t WrittenByWorker() const {
    return Counter("server.replies_written_by_worker");
  }

  std::string socket_path_;
  ArtifactRegistry registry_;
  std::unique_ptr<PartitionTree> tree_;
  std::unique_ptr<PrivHPServer> server_;
};

// Synchronous reads are answered by the worker that ran them: the bytes
// are the in-process answers, and each reply moves the counter by one.
// The counter moves just after the write, so a peer may read the reply
// first; each check waits for it and then asserts the exact count.
TEST_F(WriteThroughTest, SyncRepliesMatchInProcessAndCountOncePerReply) {
  StartServer(ServerOptions());
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  uint64_t expected = WrittenByWorker();
  ASSERT_EQ(expected, 0u);
  auto counted = [&]() {
    ++expected;
    EXPECT_TRUE(WaitFor([&] { return WrittenByWorker() >= expected; }, 5000));
    EXPECT_EQ(WrittenByWorker(), expected);
  };

  ASSERT_TRUE(client->Ping().ok());
  counted();
  for (uint64_t index = 0; index < 8; ++index) {
    const CellId cell{3, index};
    auto mass = client->RangeMass("beta", cell);
    ASSERT_TRUE(mass.ok());
    EXPECT_EQ(*mass, CellMassFraction(*tree_, cell));
    counted();
  }
  const std::vector<std::vector<double>> batches = {
      {0.5}, {0.1, 0.25, 0.75, 0.9}, {0.0, 0.01, 0.99, 1.0}};
  for (const std::vector<double>& qs : batches) {
    auto served = client->Quantiles("beta", qs);
    ASSERT_TRUE(served.ok());
    auto direct = TreeQuantiles(*tree_, qs);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(*served, *direct);
    counted();
  }
  ASSERT_TRUE(client->Ping().ok());
  counted();
  // Every request so far got its reply from a worker.
  EXPECT_EQ(Counter("server.requests"), expected);
}

// With one pipeline slot, every pipelined burst pauses the reactor's
// reads until a worker drains the slot. A worker that writes the last
// reply of a burst itself must still wake the reactor to resume
// reading, or the next burst would never be parsed.
TEST_F(WriteThroughTest, OnePipelineSlotAlternatingSyncAndPipelinedReads) {
  ServerOptions options;
  options.max_pipeline_requests = 1;
  StartServer(options);
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  const std::vector<double> qs = {0.25, 0.5, 0.75};
  auto direct_qs = TreeQuantiles(*tree_, qs);
  ASSERT_TRUE(direct_qs.ok());

  constexpr int kReads = 500;
  std::promise<std::string> result;
  std::future<std::string> done = result.get_future();
  std::thread reader([&] {
    // Returns the first mismatch or transport failure ("" when all
    // reads came back equal to the in-process answers).
    auto run = [&]() -> std::string {
      int reads = 0;
      for (int round = 0; reads < kReads; ++round) {
        const CellId cell{4, static_cast<uint64_t>(round % 16)};
        const double mass = CellMassFraction(*tree_, cell);
        if (round % 2 == 0) {
          auto served = client->RangeMass("beta", cell);
          if (!served.ok()) return served.status().ToString();
          if (*served != mass) return "sync RANGE mismatch";
          ++reads;
          continue;
        }
        // A burst of three: RANGE, QUANTILE, RANGE.
        if (!client->SendRangeMass("beta", cell).ok() ||
            !client->SendQuantiles("beta", qs).ok() ||
            !client->SendRangeMass("beta", cell).ok()) {
          return "pipelined send failed";
        }
        for (int k = 0; k < 3; ++k) {
          if (k == 1) {
            auto served = client->CollectQuantiles(qs.size());
            if (!served.ok()) return served.status().ToString();
            if (*served != *direct_qs) return "pipelined QUANTILE mismatch";
          } else {
            auto served = client->CollectRangeMass();
            if (!served.ok()) return served.status().ToString();
            if (*served != mass) return "pipelined RANGE mismatch";
          }
          ++reads;
        }
      }
      return std::string();
    };
    result.set_value(run());
  });
  if (done.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    ADD_FAILURE() << "pipelined reads stalled";
    server_->Stop();  // closes the connection; the reader's recv fails
  }
  reader.join();
  EXPECT_EQ(done.get(), "");
}

// A reply larger than the socket buffer (200,000 quantiles, 1.6 MB;
// a Unix socket takes about 208 KiB) cannot be written at once. The
// worker writes what fits and leaves the rest to the reactor, which
// finishes it once the late reader drains: the bytes arrive whole, the
// connection stays up, and the counter does not move for the reply.
TEST_F(WriteThroughTest, ReplyLargerThanTheSocketBufferReachesALateReader) {
  StartServer(ServerOptions());
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  constexpr size_t kQuantiles = 200000;
  std::vector<double> qs(kQuantiles);
  for (size_t i = 0; i < kQuantiles; ++i) {
    qs[i] = static_cast<double>(i) / static_cast<double>(kQuantiles - 1);
  }
  auto direct = TreeQuantiles(*tree_, qs);
  ASSERT_TRUE(direct.ok());
  const uint64_t before = WrittenByWorker();

  ASSERT_TRUE(client->SendQuantiles("beta", qs).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto served = client->CollectQuantiles(kQuantiles);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(*served == *direct);

  // The PING's reply is written by a worker and counted; the large
  // reply's count, had there been one, lands before the PING runs.
  ASSERT_TRUE(client->Ping().ok());
  ASSERT_TRUE(WaitFor([&] { return WrittenByWorker() >= before + 1; }, 5000));
  EXPECT_EQ(WrittenByWorker(), before + 1);
  EXPECT_EQ(Counter("server.connections_dropped.backpressure"), 0u);
  EXPECT_EQ(Counter("server.connections_dropped.idle"), 0u);
}

// Peers that send a request and close at once race the worker's write
// against the reactor's EOF: whichever comes first, the server must not
// crash, and every connection must be closed.
TEST_F(WriteThroughTest, PeersClosingRightAfterTheirRequestAreAllClosed) {
  StartServer(ServerOptions());
  const std::vector<double> qs = {0.1, 0.5, 0.9};
  constexpr int kThreads = 4;
  constexpr int kPeersPerThread = 50;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int p = 0; p < kPeersPerThread; ++p) {
        auto sock = ConnectUnix(socket_path_);
        if (!sock.ok()) {
          ++failures[t];
          continue;
        }
        std::string request;
        switch (p % 4) {
          case 0:
            request = EncodePingRequest();
            break;
          case 1:
            request = EncodeRangeRequest("beta", 2, 1);
            break;
          case 2:
            request = EncodeQuantileRequest("beta", qs);
            break;
          default:
            request = EncodeSampleRequest("beta", 10000, 1);
            break;
        }
        if (!testing::WriteFrame(*sock, request).ok()) ++failures[t];
      }  // each socket closes here, its reply unread
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;

  // Every peer accepted, and every one of them closed again.
  EXPECT_TRUE(WaitFor(
      [&] {
        const obs::MetricsSnapshot snap = server_->StatsSnapshot();
        return snap.CounterOr("server.connections") ==
                   static_cast<uint64_t>(kThreads * kPeersPerThread) &&
               snap.GaugeOr("server.connections_open", -1) == 0;
      },
      10000));
  // The server still answers.
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
}

// The idle clock restarts when a worker writes a reply, as it does when
// the reactor flushes one. The PING below waits behind an INGEST on the
// only worker for more than twice the idle timeout after its bytes
// arrived; once a worker has written its reply, the connection gets a
// full idle timeout from that write, and is dropped as idle only after.
TEST_F(WriteThroughTest, WorkerWriteRestartsTheIdleClock) {
  ServerOptions options;
  options.num_workers = 1;
  options.idle_timeout_seconds = 1;
  StartServer(options);

  auto ingester = Connect();
  ASSERT_TRUE(ingester.ok());
  Status ingested = Status::OK();
  std::thread ingest([&] {
    SlowSource source(15, std::chrono::milliseconds(200));
    PrivHPClient::IngestSpec spec;
    spec.n = 100;
    spec.batch = 1;  // a frame per point, inside the per-frame idle bound
    ingested = ingester->Ingest("fresh", spec, &source).status();
  });
  ASSERT_TRUE(WaitFor(
      [&] {
        return server_->StatsSnapshot().GaugeOr("server.workers_busy") == 1;
      },
      5000));

  auto client = Connect();
  ASSERT_TRUE(client.ok());
  const uint64_t before = WrittenByWorker();
  const auto sent = std::chrono::steady_clock::now();
  ASSERT_TRUE(client->Ping().ok());
  const auto answered = std::chrono::steady_clock::now();
  ingest.join();
  ASSERT_TRUE(ingested.ok()) << ingested.ToString();
  // The PING waited out more than two idle timeouts for the worker, and
  // its reply was written by the worker, not the reactor.
  EXPECT_GE(answered - sent, std::chrono::seconds(2));
  ASSERT_TRUE(WaitFor([&] { return WrittenByWorker() > before; }, 5000));

  // Well inside the idle timeout from the write: still connected.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_EQ(Counter("server.connections_dropped.idle"), 0u);

  // Left alone, both connections are dropped as idle.
  EXPECT_TRUE(WaitFor(
      [&] { return Counter("server.connections_dropped.idle") == 2; },
      5000));
}

}  // namespace
}  // namespace privhp
