// Slow-reader backpressure coverage for the event-loop server.
//
// A peer that requests a large SAMPLE and never reads must not grow an
// unbounded response queue: the producer parks at max_output_queue_bytes
// and the write-stall deadline eventually drops the connection, counted
// under server.connections_dropped.backpressure. Other clients on the
// same server keep being served throughout. All assertions go through
// the STATS op, so this also exercises the metrics path end to end.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/builder.h"
#include "domain/interval_domain.h"
#include "io/frame_socket.h"
#include "io/point_sink.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "testing/frames.h"

namespace privhp {
namespace {

void PublishArtifact(ArtifactRegistry* registry, const std::string& name) {
  RandomEngine rng(7);
  auto domain = std::make_unique<IntervalDomain>();
  PrivHPOptions options;
  options.expected_n = 4000;
  options.seed = 42;
  auto builder = PrivHPBuilder::Make(domain.get(), options);
  ASSERT_TRUE(builder.ok());
  for (size_t i = 0; i < 4000; ++i) {
    ASSERT_TRUE(
        builder->Add({rng.UniformDouble() * rng.UniformDouble()}).ok());
  }
  auto generator = std::move(*builder).Finish();
  ASSERT_TRUE(generator.ok());
  ASSERT_TRUE(registry
                  ->Publish(name, ServedArtifact::Make(std::move(domain),
                                                       std::move(*generator),
                                                       "test"))
                  .ok());
}

// Polls \p pred every 50 ms until it holds or \p timeout_ms elapses.
bool WaitFor(const std::function<bool()>& pred, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return pred();
}

TEST(BackpressureTest, SlowReaderStaysBoundedAndIsEventuallyDropped) {
  constexpr size_t kQueueCap = 64 * 1024;
  const std::string path = ::testing::TempDir() + "/bp_slow_" +
                           std::to_string(::getpid()) + ".sock";
  ArtifactRegistry registry;
  PublishArtifact(&registry, "beta");

  ServerOptions options;
  options.unix_path = path;
  options.num_workers = 2;
  options.max_output_queue_bytes = kQueueCap;
  options.send_timeout_seconds = 1;
  auto server = PrivHPServer::Start(&registry, options);
  ASSERT_TRUE(server.ok());

  // The slow reader: ask for ~8 MB of sample points, then never read.
  // The kernel socket buffer fills, the writer parks, and the SAMPLE
  // producer stalls at the queue cap.
  auto staller = ConnectUnix(path);
  ASSERT_TRUE(staller.ok());
  ASSERT_TRUE(
      testing::WriteFrame(*staller, EncodeSampleRequest("beta", 1u << 20, 1))
          .ok());

  auto client = PrivHPClient::ConnectUnix(path);
  ASSERT_TRUE(client.ok());

  // The stalled connection's queue never exceeds the cap by more than
  // one frame, no matter how large the requested sample is. The gauge
  // covers all peers, so observing it anywhere near 8 MB would mean the
  // bound failed; if the deadline sweep already dropped the staller the
  // gauge has snapped back to zero, which the drop counter confirms.
  bool saw_parked_bytes = false;
  ASSERT_TRUE(WaitFor(
      [&] {
        auto stats = client->Stats();
        if (!stats.ok()) return false;
        const int64_t queued = stats->GaugeOr("server.output_queue_bytes");
        EXPECT_LE(queued, int64_t(2 * kQueueCap));
        if (queued > 0) saw_parked_bytes = true;
        return saw_parked_bytes ||
               stats->CounterOr(
                   "server.connections_dropped.backpressure") > 0;
      },
      5000));

  // Other clients are unaffected while the staller clogs its queue.
  EXPECT_TRUE(client->Ping().ok());
  auto names = client->List();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, std::vector<std::string>{"beta"});

  // The write-stall deadline (1 s, swept at reactor-tick granularity)
  // drops the staller and counts it as a backpressure casualty.
  ASSERT_TRUE(WaitFor(
      [&] {
        auto stats = client->Stats();
        return stats.ok() &&
               stats->CounterOr(
                   "server.connections_dropped.backpressure") > 0;
      },
      10000));

  // Once dropped, the queue gauge drains back to zero and the healthy
  // client is the only remaining peer.
  ASSERT_TRUE(WaitFor(
      [&] {
        auto stats = client->Stats();
        return stats.ok() &&
               stats->GaugeOr("server.output_queue_bytes") == 0 &&
               stats->GaugeOr("server.connections_open") == 1;
      },
      5000));
  EXPECT_TRUE(client->Ping().ok());

  (*server)->Stop();
  std::remove(path.c_str());
}

// Hands out \p batches one-point batches, pausing before each, so an
// INGEST fed from it holds its worker for about batches * pause.
class SlowSource : public PointSource {
 public:
  SlowSource(int batches, std::chrono::milliseconds pause)
      : left_(batches), pause_(pause) {}

  Result<bool> Next(Point*) override {
    return Status::Internal("SlowSource is read by batch");
  }

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

// The write-stall clock starts when output becomes pending, not at
// accept: replies that wait for the only worker longer than the send
// timeout are still answered, not dropped as stalled readers.
TEST(BackpressureTest, ReplyQueuedBehindSlowIngestIsNotAStall) {
  const std::string path = ::testing::TempDir() + "/bp_queued_" +
                           std::to_string(::getpid()) + ".sock";
  ArtifactRegistry registry;
  PublishArtifact(&registry, "beta");

  ServerOptions options;
  options.unix_path = path;
  options.num_workers = 1;
  options.send_timeout_seconds = 1;
  auto server = PrivHPServer::Start(&registry, options);
  ASSERT_TRUE(server.ok());

  auto ingester = PrivHPClient::ConnectUnix(path);
  ASSERT_TRUE(ingester.ok());
  Status ingested = Status::OK();
  std::thread ingest([&] {
    SlowSource source(12, std::chrono::milliseconds(200));
    PrivHPClient::IngestSpec spec;
    spec.n = 100;
    ingested = ingester->Ingest("fresh", spec, &source).status();
  });
  ASSERT_TRUE(WaitFor(
      [&] {
        return (*server)->StatsSnapshot().GaugeOr("server.workers_busy") ==
               1;
      },
      5000));

  // Each client's PING waits behind the INGEST for well over the send
  // timeout after its connection was accepted.
  constexpr int kClients = 8;
  std::vector<PrivHPClient> clients;
  for (int c = 0; c < kClients; ++c) {
    auto client = PrivHPClient::ConnectUnix(path);
    ASSERT_TRUE(client.ok());
    clients.push_back(std::move(*client));
  }
  std::vector<Status> pinged(kClients, Status::OK());
  std::vector<std::thread> pingers;
  for (int c = 0; c < kClients; ++c) {
    pingers.emplace_back([&, c] { pinged[c] = clients[c].Ping(); });
  }
  for (std::thread& t : pingers) t.join();
  ingest.join();

  EXPECT_TRUE(ingested.ok()) << ingested.ToString();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(pinged[c].ok()) << c << ": " << pinged[c].ToString();
  }
  EXPECT_EQ((*server)->StatsSnapshot().CounterOr(
                "server.connections_dropped.backpressure"),
            0u);
  (*server)->Stop();
  std::remove(path.c_str());
}

TEST(BackpressureTest, ConnectionsOpenGaugeTracksAcceptAndDrop) {
  const std::string path = ::testing::TempDir() + "/bp_gauge_" +
                           std::to_string(::getpid()) + ".sock";
  ArtifactRegistry registry;
  ServerOptions options;
  options.unix_path = path;
  options.num_workers = 2;
  auto server = PrivHPServer::Start(&registry, options);
  ASSERT_TRUE(server.ok());

  auto client = PrivHPClient::ConnectUnix(path);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(WaitFor(
      [&] {
        auto stats = client->Stats();
        return stats.ok() && stats->GaugeOr("server.connections_open") == 1;
      },
      3000));

  // Two more raw peers: the gauge counts them as soon as the reactor
  // accepts (no request needed).
  {
    auto a = ConnectUnix(path);
    auto b = ConnectUnix(path);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(WaitFor(
        [&] {
          auto stats = client->Stats();
          return stats.ok() &&
                 stats->GaugeOr("server.connections_open") == 3;
        },
        3000));
  }  // both close here

  // Peer-closed connections decrement the gauge once the reactor sees
  // the EOF.
  ASSERT_TRUE(WaitFor(
      [&] {
        auto stats = client->Stats();
        return stats.ok() && stats->GaugeOr("server.connections_open") == 1;
      },
      3000));

  (*server)->Stop();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace privhp
