// End-to-end STATS coverage: drive a scripted request sequence against
// a live server and assert that the per-endpoint counters, latency /
// byte histograms, server gauges, and registry/artifact inventory all
// advance the way the sequence dictates — both read through
// PrivHPServer::StatsSnapshot() and round-tripped over the wire via
// PrivHPClient::Stats().

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/builder.h"
#include "domain/interval_domain.h"
#include "io/point_sink.h"
#include "obs/metrics_registry.h"
#include "service/client.h"
#include "service/server.h"
#include "storage/artifact_packer.h"

namespace privhp {
namespace {

// CounterOr fallback that no real counter reaches: tells "absent" apart
// from "present and zero".
constexpr uint64_t kAbsent = ~uint64_t{0};

class StatsRequestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ = ::testing::TempDir() + "/stats_" +
                   std::to_string(::getpid()) + "_" +
                   ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name() +
                   ".sock";
    auto domain = std::make_unique<IntervalDomain>();
    PrivHPOptions options;
    options.expected_n = kN;
    options.seed = 42;
    auto builder = PrivHPBuilder::Make(domain.get(), options);
    ASSERT_TRUE(builder.ok());
    RandomEngine rng(7);
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_TRUE(builder->Add({rng.UniformDouble()}).ok());
    }
    auto generator = std::move(*builder).Finish();
    ASSERT_TRUE(generator.ok());
    ASSERT_TRUE(registry_
                    .Publish("alpha", ServedArtifact::Make(
                                          std::move(domain),
                                          std::move(*generator), "test"))
                    .ok());

    ServerOptions server_options;
    server_options.unix_path = socket_path_;
    server_options.num_workers = 2;
    server_options.metrics = &metrics_;
    auto server = PrivHPServer::Start(&registry_, server_options);
    ASSERT_TRUE(server.ok());
    server_ = std::move(*server);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    std::remove(socket_path_.c_str());
  }

  Result<PrivHPClient> Connect() {
    return PrivHPClient::ConnectUnix(socket_path_);
  }

  static constexpr size_t kN = 2000;
  std::string socket_path_;
  obs::MetricsRegistry metrics_;
  ArtifactRegistry registry_;
  std::unique_ptr<PrivHPServer> server_;
};

TEST_F(StatsRequestTest, ScriptedSequenceAdvancesCountersAndHistograms) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());

  // The script: 3 SAMPLEs, 2 RANGEs, 1 failing RANGE (bad artifact),
  // 1 failing SAMPLE (bad artifact).
  for (int i = 0; i < 3; ++i) {
    auto s = client->Sample("alpha", 100, /*seed=*/uint64_t(i + 1));
    ASSERT_TRUE(s.ok());
  }
  for (int i = 0; i < 2; ++i) {
    auto r = client->RangeMass("alpha", CellId{1, 0});
    ASSERT_TRUE(r.ok());
  }
  EXPECT_FALSE(client->RangeMass("ghost", CellId{1, 0}).ok());
  EXPECT_FALSE(client->Sample("ghost", 10, 1).ok());

  // The server records a request's histograms *after* sending its
  // response, so the newest request can race a snapshot. One trailing
  // request (not asserted on) serializes everything scripted above:
  // the worker records request N's metrics before reading frame N+1.
  ASSERT_TRUE(client->List().ok());

  const obs::MetricsSnapshot snap = server_->StatsSnapshot();

  EXPECT_EQ(snap.CounterOr("op.sample.requests"), 4u);
  EXPECT_EQ(snap.CounterOr("op.sample.errors"), 1u);
  EXPECT_EQ(snap.CounterOr("op.range.requests"), 3u);
  EXPECT_EQ(snap.CounterOr("op.range.errors"), 1u);
  EXPECT_EQ(snap.CounterOr("op.ping.requests"), 0u);
  EXPECT_EQ(snap.CounterOr("sample.points"), 300u);

  // Latency histograms: one entry per request, all nonzero durations.
  const obs::HistogramSnapshot* sample_lat =
      snap.FindHistogram("op.sample.latency_ns");
  ASSERT_NE(sample_lat, nullptr);
  EXPECT_EQ(sample_lat->Count(), 4u);
  EXPECT_GT(sample_lat->ValueAtQuantile(0.5), 0u);
  const obs::HistogramSnapshot* range_lat =
      snap.FindHistogram("op.range.latency_ns");
  ASSERT_NE(range_lat, nullptr);
  EXPECT_EQ(range_lat->Count(), 3u);

  // Byte accounting: every request recorded its wire sizes. A RANGE
  // request frame is opcode + name + level + index = 22 bytes.
  const obs::HistogramSnapshot* range_in =
      snap.FindHistogram("op.range.bytes_in");
  ASSERT_NE(range_in, nullptr);
  EXPECT_EQ(range_in->Count(), 3u);
  EXPECT_EQ(range_in->max, 22u);
  // A successful SAMPLE of 100 doubles streams > 800 payload bytes out.
  const obs::HistogramSnapshot* sample_out =
      snap.FindHistogram("op.sample.bytes_out");
  ASSERT_NE(sample_out, nullptr);
  EXPECT_EQ(sample_out->Count(), 4u);
  EXPECT_GT(sample_out->max, 800u);

  // Server-level instrumentation.
  EXPECT_EQ(snap.GaugeOr("server.workers_total"), 2);
  EXPECT_EQ(snap.GaugeOr("server.queue_depth"), 0);
  const obs::HistogramSnapshot* queue_wait =
      snap.FindHistogram("server.queue_wait_ns");
  ASSERT_NE(queue_wait, nullptr);
  EXPECT_GE(queue_wait->Count(), 1u);  // our one connection was queued

  // Registry / artifact inventory, composed at snapshot time.
  EXPECT_EQ(snap.CounterOr("registry.publishes"), 1u);
  EXPECT_EQ(snap.GaugeOr("registry.artifacts"), 1);
  EXPECT_GT(snap.GaugeOr("registry.resident_bytes"), 0);
  EXPECT_GT(snap.GaugeOr("artifact.alpha.nodes"), 0);
  EXPECT_EQ(snap.GaugeOr("artifact.alpha.repr", -1), 0);  // heap
  EXPECT_EQ(snap.GaugeOr("artifact.alpha.page_bytes", -1), 0);  // no pages

  // Server totals ride along under "server.*"; sampled points are
  // counted once, as sample.points.
  EXPECT_EQ(snap.CounterOr("server.errors"), 2u);
  EXPECT_EQ(snap.CounterOr("server.sampled_points", kAbsent), kAbsent);
}

TEST_F(StatsRequestTest, ServerTotalsAreRegistryCounters) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Sample("alpha", 120, /*seed=*/5).ok());
  EXPECT_FALSE(client->RangeMass("ghost", CellId{1, 0}).ok());

  // Every total is counted before the response it describes is queued,
  // so the snapshot is exact once the error reply has been read.
  const obs::MetricsSnapshot snap = server_->StatsSnapshot();
  EXPECT_EQ(snap.CounterOr("server.connections", kAbsent), 1u);
  EXPECT_EQ(snap.CounterOr("server.requests", kAbsent), 2u);
  EXPECT_EQ(snap.CounterOr("server.errors", kAbsent), 1u);
  EXPECT_EQ(snap.CounterOr("server.ingests_published", kAbsent), 0u);
  EXPECT_EQ(snap.CounterOr("server.listener_failure_streaks", kAbsent), 0u);
  // Sampled points are counted once, as sample.points; ingested points
  // are not counted at all (IngestExportsNoStreamLength).
  EXPECT_EQ(snap.CounterOr("server.sampled_points", kAbsent), kAbsent);
  EXPECT_EQ(snap.CounterOr("server.ingested_points", kAbsent), kAbsent);
  EXPECT_EQ(snap.CounterOr("sample.points", kAbsent), 120u);

  // The same totals live in the registry the server records into, and
  // reach a STATS peer (whose own request is the third).
  const obs::MetricsSnapshot shared = metrics_.Snapshot();
  EXPECT_EQ(shared.CounterOr("server.connections", kAbsent), 1u);
  EXPECT_EQ(shared.CounterOr("server.errors", kAbsent), 1u);
  auto remote = client->Stats();
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(remote->CounterOr("server.requests", kAbsent), 3u);
  EXPECT_EQ(remote->CounterOr("server.errors", kAbsent), 1u);
  EXPECT_EQ(remote->CounterOr("server.ingested_points", kAbsent), kAbsent);
}

// A paged artifact reports the page size its file was packed at: the
// 4 KiB default, or 64 KiB for files packed before that was the default.
TEST_F(StatsRequestTest, PagedArtifactsReportTheirPageSize) {
  auto alpha = registry_.Get("alpha");
  ASSERT_TRUE(alpha.ok());
  storage::PagedReadOptions pooled;
  pooled.use_buffer_pool = true;
  for (const uint32_t page_size : {storage::kDefaultPageSize, 64u << 10}) {
    const std::string path = socket_path_ + "." +
                             std::to_string(page_size) + ".phx";
    storage::PackOptions pack;
    pack.page_size = page_size;
    ASSERT_TRUE(storage::PackArtifact((*alpha)->generator().tree(), path,
                                      pack)
                    .ok());
    auto mmapped = ServedArtifact::FromPagedFile(path, {});
    auto pool = ServedArtifact::FromPagedFile(path, pooled);
    std::remove(path.c_str());
    ASSERT_TRUE(mmapped.ok() && pool.ok());
    const std::string suffix = std::to_string(page_size);
    ASSERT_TRUE(registry_.Publish("mmap" + suffix, *mmapped).ok());
    ASSERT_TRUE(registry_.Publish("pool" + suffix, *pool).ok());
  }
  const obs::MetricsSnapshot snap = server_->StatsSnapshot();
  EXPECT_EQ(snap.GaugeOr("artifact.alpha.page_bytes", -1), 0);
  EXPECT_EQ(snap.GaugeOr("artifact.mmap4096.page_bytes", -1), 4096);
  EXPECT_EQ(snap.GaugeOr("artifact.pool4096.page_bytes", -1), 4096);
  EXPECT_EQ(snap.GaugeOr("artifact.mmap65536.page_bytes", -1), 65536);
  EXPECT_EQ(snap.GaugeOr("artifact.pool65536.page_bytes", -1), 65536);
  EXPECT_EQ(snap.GaugeOr("artifact.pool4096.repr", -1), 2);
}

// An INGEST's stream length is the un-noised n (sensitivity 1): no
// metric may reveal it. Two sessions of very different lengths leave
// identical traces — no ingest.* counters, and op.ingest.bytes_in holds
// only the two equal-size request frames.
TEST_F(StatsRequestTest, IngestExportsNoStreamLength) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  RandomEngine rng(17);
  for (const size_t n : {size_t{300}, size_t{6000}}) {
    PointBatch data(1);
    for (size_t i = 0; i < n; ++i) {
      const double x = rng.UniformDouble();
      data.AppendFlat(&x, 1);
    }
    PrivHPClient::IngestSpec spec;
    spec.n = 1000;  // the declared plan, the same for both sessions
    spec.batch = 100;
    PointBatchSource source(&data);
    auto report = client->Ingest("fresh", spec, &source);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->points_sent, n);
  }

  const obs::MetricsSnapshot snap = server_->StatsSnapshot();
  EXPECT_EQ(snap.CounterOr("server.ingests_published", kAbsent), 2u);
  EXPECT_EQ(snap.CounterOr("ingest.points", kAbsent), kAbsent);
  EXPECT_EQ(snap.CounterOr("ingest.batches", kAbsent), kAbsent);
  EXPECT_EQ(snap.CounterOr("server.ingested_points", kAbsent), kAbsent);
  const obs::HistogramSnapshot* ingest_in =
      snap.FindHistogram("op.ingest.bytes_in");
  ASSERT_NE(ingest_in, nullptr);
  EXPECT_EQ(ingest_in->Count(), 2u);
  EXPECT_EQ(ingest_in->sum, 2 * ingest_in->max);
  // The request frame alone: far below even the short stream's 2400
  // point bytes.
  EXPECT_LT(ingest_in->max, 100u);
}

TEST_F(StatsRequestTest, WireRoundTripMatchesServerSnapshot) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Ping().ok());
  auto sampled = client->Sample("alpha", 50, 9);
  ASSERT_TRUE(sampled.ok());

  auto remote = client->Stats();
  ASSERT_TRUE(remote.ok());

  // The STATS request itself was counted before the snapshot encoded.
  EXPECT_EQ(remote->CounterOr("op.stats.requests"), 1u);
  EXPECT_EQ(remote->CounterOr("op.ping.requests"), 1u);
  EXPECT_EQ(remote->CounterOr("op.sample.requests"), 1u);
  EXPECT_EQ(remote->CounterOr("sample.points"), 50u);

  // Histograms survive the sparse-bucket encoding exactly: compare the
  // wire copy of a histogram against the server's own snapshot.
  const obs::MetricsSnapshot local = server_->StatsSnapshot();
  const obs::HistogramSnapshot* remote_lat =
      remote->FindHistogram("op.sample.latency_ns");
  const obs::HistogramSnapshot* local_lat =
      local.FindHistogram("op.sample.latency_ns");
  ASSERT_NE(remote_lat, nullptr);
  ASSERT_NE(local_lat, nullptr);
  EXPECT_EQ(remote_lat->buckets, local_lat->buckets);
  EXPECT_EQ(remote_lat->sum, local_lat->sum);
  EXPECT_EQ(remote_lat->max, local_lat->max);

  // Names arrive sorted (the snapshot invariant the CLI relies on).
  for (size_t i = 1; i < remote->counters.size(); ++i) {
    EXPECT_LT(remote->counters[i - 1].name, remote->counters[i].name);
  }
  for (size_t i = 1; i < remote->histograms.size(); ++i) {
    EXPECT_LT(remote->histograms[i - 1].name, remote->histograms[i].name);
  }
}

TEST_F(StatsRequestTest, SharedRegistryIsReadableOutsideTheServer) {
  // The test passed its own registry in ServerOptions, so the same
  // counters are visible without any wire call — the embedding pattern
  // (one process-wide registry shared by several subsystems).
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Ping().ok());
  const obs::MetricsSnapshot snap = metrics_.Snapshot();
  EXPECT_EQ(snap.CounterOr("op.ping.requests"), 1u);
  EXPECT_EQ(snap.GaugeOr("server.workers_total"), 2);
}

}  // namespace
}  // namespace privhp
