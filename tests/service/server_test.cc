#include "service/server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/builder.h"
#include "core/queries.h"
#include "domain/hypercube_domain.h"
#include "domain/interval_domain.h"
#include "hierarchy/compiled_sampler.h"
#include "hierarchy/tree_serialization.h"
#include "io/point_sink.h"
#include "service/client.h"
#include "testing/frames.h"

namespace privhp {
namespace {

std::vector<Point> MakeData(size_t n, int dim, uint64_t seed) {
  RandomEngine rng(seed);
  std::vector<Point> data;
  data.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Point p;
    p.reserve(dim);
    // Mild skew so the tree is not trivial.
    for (int c = 0; c < dim; ++c) p.push_back(rng.UniformDouble() *
                                              rng.UniformDouble());
    data.push_back(std::move(p));
  }
  return data;
}

// Server + registry with one 1-D artifact named "beta", over a Unix
// socket in the test tmpdir.
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ = ::testing::TempDir() + "/srv_" +
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
    for (const Point& p : MakeData(kN, 1, 7)) {
      ASSERT_TRUE(builder->Add(p).ok());
    }
    auto generator = std::move(*builder).Finish();
    ASSERT_TRUE(generator.ok());
    tree_copy_ = std::make_unique<PartitionTree>(generator->tree());
    ASSERT_TRUE(registry_
                    .Publish("beta", ServedArtifact::Make(
                                         std::move(domain),
                                         std::move(*generator), "test"))
                    .ok());

    ServerOptions server_options;
    server_options.unix_path = socket_path_;
    server_options.num_workers = 4;
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

  static constexpr size_t kN = 4000;
  std::string socket_path_;
  ArtifactRegistry registry_;
  std::unique_ptr<PartitionTree> tree_copy_;
  std::unique_ptr<PrivHPServer> server_;
};

TEST_F(ServerTest, PingAndList) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
  auto names = client->List();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, std::vector<std::string>{"beta"});
}

TEST_F(ServerTest, SeededSampleIsReproducibleAcrossConnections) {
  auto c1 = Connect();
  auto c2 = Connect();
  ASSERT_TRUE(c1.ok() && c2.ok());
  auto s1 = c1->Sample("beta", 500, /*seed=*/123);
  auto s2 = c2->Sample("beta", 500, /*seed=*/123);
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_EQ(*s1, *s2);

  // And identical to sampling the artifact locally with the same seed:
  // the server adds no hidden randomness. SampleBatch on the artifact's
  // cached compiled table is the local ground truth, so this also pins
  // wire-level byte determinism of the compiled path.
  auto artifact = registry_.Get("beta");
  ASSERT_TRUE(artifact.ok());
  RandomEngine rng(123);
  EXPECT_EQ(*s1, (*artifact)->generator().sampler().SampleBatch(500, &rng));
  RandomEngine rng2(123);
  EXPECT_EQ(*s1, (*artifact)->generator().Generate(500, &rng2));

  // A different seed gives a different stream.
  auto s3 = c1->Sample("beta", 500, /*seed=*/124);
  ASSERT_TRUE(s3.ok());
  EXPECT_NE(*s1, *s3);
}

TEST_F(ServerTest, SeedlessSamplesDiffer) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto s1 = client->Sample("beta", 100, 0);
  auto s2 = client->Sample("beta", 100, 0);
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_NE(*s1, *s2);
}

TEST_F(ServerTest, QueriesMatchDirectEvaluation) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());

  auto quantiles = client->Quantiles("beta", {0.25, 0.5, 0.9});
  ASSERT_TRUE(quantiles.ok());
  auto direct = TreeQuantiles(*tree_copy_, {0.25, 0.5, 0.9});
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*quantiles, *direct);

  auto mass = client->RangeMass("beta", CellId{1, 0});
  ASSERT_TRUE(mass.ok());
  EXPECT_EQ(*mass, CellMassFraction(*tree_copy_, CellId{1, 0}));

  auto heavy = client->Heavy("beta", 0.05);
  ASSERT_TRUE(heavy.ok());
  auto direct_heavy = HierarchicalHeavyHitters(*tree_copy_, 0.05);
  ASSERT_TRUE(direct_heavy.ok());
  ASSERT_EQ(heavy->size(), direct_heavy->size());
  for (size_t i = 0; i < heavy->size(); ++i) {
    EXPECT_EQ((*heavy)[i].cell, (*direct_heavy)[i].cell);
    EXPECT_EQ((*heavy)[i].fraction, (*direct_heavy)[i].fraction);
  }
}

TEST_F(ServerTest, ExportIsByteIdenticalToLocalSave) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto exported = client->Export("beta");
  ASSERT_TRUE(exported.ok());
  std::ostringstream local;
  ASSERT_TRUE(SaveTree(*tree_copy_, &local).ok());
  EXPECT_EQ(*exported, local.str());
}

TEST_F(ServerTest, ErrorsComeBackAsStatuses) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Sample("nope", 10, 1).status().IsInvalidArgument());
  // The connection survives an application error.
  EXPECT_TRUE(client->Ping().ok());
  // Quantiles of a high-dimensional request still work point-wise (dim 1
  // artifact), but an out-of-range cell is rejected.
  EXPECT_TRUE(client->RangeMass("beta", CellId{2, 17})
                  .status()
                  .IsInvalidArgument());
}

// The acceptance bar: >= 4 concurrent client threads hammering SAMPLE
// with per-request seeds, each response reproducible and race-clean
// (this test runs under TSan in CI).
TEST_F(ServerTest, ConcurrentSeededSamplesAreReproducible) {
  constexpr int kClients = 4;
  constexpr int kRequests = 8;
  constexpr size_t kM = 400;

  auto artifact = registry_.Get("beta");
  ASSERT_TRUE(artifact.ok());

  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t]() {
      auto client = Connect();
      ASSERT_TRUE(client.ok());
      for (int r = 0; r < kRequests; ++r) {
        const uint64_t seed = 1 + t * 100 + r;
        auto points = client->Sample("beta", kM, seed);
        ASSERT_TRUE(points.ok());
        ASSERT_EQ(points->size(), kM);
        RandomEngine rng(seed);
        ASSERT_EQ(*points, (*artifact)->generator().Generate(kM, &rng));
      }
    });
  }
  for (std::thread& c : clients) c.join();

  const obs::MetricsSnapshot stats = server_->StatsSnapshot();
  EXPECT_GE(stats.CounterOr("server.requests"),
            uint64_t{kClients * kRequests});
  EXPECT_GE(stats.CounterOr("sample.points"),
            uint64_t{kClients * kRequests * kM});
}

// Concurrent SAMPLE clients all pin the same ServedArtifact, so they
// share the one CompiledSampler alias table its generator carries —
// this test hammers that shared table from >= 4 threads (race-clean
// under TSan in CI) while the registry publishes an unrelated artifact
// mid-flight, and checks every response byte-for-byte against local
// draws from the same table.
TEST_F(ServerTest, ConcurrentSamplesShareOneCompiledTable) {
  constexpr int kClients = 4;
  constexpr int kRequests = 6;
  constexpr size_t kM = 300;

  auto artifact = registry_.Get("beta");
  ASSERT_TRUE(artifact.ok());
  const CompiledSampler& table = (*artifact)->generator().sampler();
  EXPECT_GT(table.num_cells(), 1u);

  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t]() {
      auto client = Connect();
      ASSERT_TRUE(client.ok());
      for (int r = 0; r < kRequests; ++r) {
        const uint64_t seed = 900 + t * 37 + r;
        auto points = client->Sample("beta", kM, seed);
        ASSERT_TRUE(points.ok());
        RandomEngine rng(seed);
        ASSERT_EQ(*points, table.SampleBatch(kM, &rng));
      }
    });
  }
  // Publish a different artifact while the samplers run: registry
  // mutation must not perturb concurrent reads of the cached table.
  {
    auto domain = std::make_unique<IntervalDomain>();
    PrivHPOptions options;
    options.expected_n = 500;
    options.seed = 1234;
    auto builder = PrivHPBuilder::Make(domain.get(), options);
    ASSERT_TRUE(builder.ok());
    for (const Point& p : MakeData(500, 1, 99)) {
      ASSERT_TRUE(builder->Add(p).ok());
    }
    auto other = std::move(*builder).Finish();
    ASSERT_TRUE(other.ok());
    ASSERT_TRUE(registry_
                    .Publish("gamma", ServedArtifact::Make(
                                          std::move(domain),
                                          std::move(*other), "swap"))
                    .ok());
  }
  for (std::thread& c : clients) c.join();
}

// Ingest over the socket == build from the same data locally, bit for
// bit: the served artifact is exactly the released artifact.
TEST_F(ServerTest, IngestPublishesByteIdenticalArtifact) {
  const PointBatch data = PointBatch::FromPoints(MakeData(3000, 2, 11));

  PrivHPClient::IngestSpec spec;
  spec.dim = 2;
  spec.epsilon = 1.0;
  spec.k = 16;
  spec.n = data.size();
  spec.seed = 5;
  spec.threads = 2;

  auto client = Connect();
  ASSERT_TRUE(client.ok());
  PointBatchSource source(&data);
  auto report = client->Ingest("fresh", spec, &source);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->points_sent, data.size());
  EXPECT_GT(report->nodes, 0u);

  // Build the same artifact locally (sequential reference build).
  HypercubeDomain domain(2);
  PrivHPOptions options;
  options.epsilon = spec.epsilon;
  options.k = spec.k;
  options.expected_n = spec.n;
  options.seed = spec.seed;
  PointBatchSource local_source(&data);
  auto local =
      PrivHPBuilder::BuildParallel(&domain, options, &local_source, 1);
  ASSERT_TRUE(local.ok());
  std::ostringstream local_bytes;
  ASSERT_TRUE(SaveTree(local->tree(), &local_bytes).ok());

  auto exported = client->Export("fresh");
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(*exported, local_bytes.str());

  // The new artifact serves immediately alongside the old one.
  auto names = client->List();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"beta", "fresh"}));
  auto sampled = client->Sample("fresh", 50, 3);
  ASSERT_TRUE(sampled.ok());
  EXPECT_EQ((*sampled)[0].size(), 2u);
}

// Small client frames: the server coalesces 64-point frames into full
// shard windows, and the artifact still equals a local BuildParallel of
// the same points, byte for byte. 40,000 points span two full 16K
// windows and a partial one.
TEST_F(ServerTest, IngestInSmallFramesPublishesByteIdenticalArtifact) {
  const PointBatch data = PointBatch::FromPoints(MakeData(40000, 1, 31));

  PrivHPClient::IngestSpec spec;
  spec.dim = 1;
  spec.k = 16;
  spec.n = data.size();
  spec.seed = 8;
  spec.threads = 2;
  spec.batch = 64;

  auto client = Connect();
  ASSERT_TRUE(client.ok());
  PointBatchSource source(&data);
  auto report = client->Ingest("small_frames", spec, &source);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->points_sent, data.size());

  HypercubeDomain domain(1);
  PrivHPOptions options;
  options.epsilon = spec.epsilon;
  options.k = spec.k;
  options.expected_n = spec.n;
  options.seed = spec.seed;
  PointBatchSource local_source(&data);
  auto local =
      PrivHPBuilder::BuildParallel(&domain, options, &local_source, 3);
  ASSERT_TRUE(local.ok());
  std::ostringstream local_bytes;
  ASSERT_TRUE(SaveTree(local->tree(), &local_bytes).ok());

  auto exported = client->Export("small_frames");
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(*exported, local_bytes.str());
}

TEST_F(ServerTest, IngestValidatesBeforeStreaming) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  PrivHPClient::IngestSpec spec;
  spec.dim = 1;
  spec.n = 0;  // missing horizon
  const PointBatch data = PointBatch::FromPoints({{0.5}});
  PointBatchSource source(&data);
  EXPECT_TRUE(
      client->Ingest("bad", spec, &source).status().IsInvalidArgument());
  // Connection still usable.
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServerTest, IngestHotSwapsLiveArtifact) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());

  // A reader pins the current version.
  auto before = registry_.Get("beta");
  ASSERT_TRUE(before.ok());
  const double mass_before = (*before)->generator().TotalMass();

  const PointBatch data = PointBatch::FromPoints(MakeData(2000, 1, 23));
  PrivHPClient::IngestSpec spec;
  spec.dim = 1;
  spec.n = data.size();
  spec.seed = 77;
  PointBatchSource source(&data);
  auto report = client->Ingest("beta", spec, &source);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The registry now serves the new artifact; the pinned one is intact.
  auto after = registry_.Get("beta");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before->get(), after->get());
  EXPECT_EQ((*before)->generator().TotalMass(), mass_before);
  EXPECT_EQ((*after)->source(), "ingest");
}

TEST_F(ServerTest, SampleBeyondServerLimitIsRejected) {
  // Default max_sample_points is 2^24; a 13-byte request must not be able
  // to park a worker generating points for centuries.
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Sample("beta", uint64_t{1} << 60, 1)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServerTest, LocalSourceFailureMidIngestClosesCleanly) {
  // The local source dies mid-stream: the client must abort the
  // connection (no end frame — a clean finish would publish a silently
  // truncated artifact) and later calls must fail loudly, not desync.
  struct FailingSource : PointSource {
    bool sent = false;
    Result<size_t> NextBatch(size_t, PointBatch* out) override {
      if (sent) return Status::IOError("source exploded");
      sent = true;
      *out = PointBatch::FromPoints(std::vector<Point>(10, Point{0.5}));
      return out->size();
    }
  };
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  FailingSource src;
  PrivHPClient::IngestSpec spec;
  spec.dim = 1;
  spec.n = 100;
  auto report = client->Ingest("partial", spec, &src);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsIOError());
  EXPECT_FALSE(client->Ping().ok());  // connection closed, not desynced

  // Nothing was published from the truncated stream, and the worker is
  // free to serve a fresh connection.
  auto fresh = Connect();
  ASSERT_TRUE(fresh.ok());
  auto names = fresh->List();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, std::vector<std::string>{"beta"});
}

TEST_F(ServerTest, StopReturnsWhileClientStallsMidIngest) {
  // A peer that opens an ingest session and then goes silent must not
  // wedge shutdown: the worker's blocked recv polls the stop flag.
  auto sock = ConnectUnix(socket_path_);
  ASSERT_TRUE(sock.ok());
  ServiceRequest spec;
  spec.op = ServiceOp::kIngest;
  spec.artifact = "stalled";
  spec.dim = 1;
  spec.n = 100;
  ASSERT_TRUE(testing::WriteFrame(*sock, EncodeIngestRequest(spec)).ok());
  FrameReader reader;
  std::string frame;
  WireReader payload;
  auto more = testing::ReadFrame(*sock, &reader, &frame);
  ASSERT_TRUE(more.ok() && *more);
  ASSERT_TRUE(ParseResponse(frame, &payload).ok());
  // ... and now send nothing. Stop() must still return promptly (the
  // ctest TIMEOUT would flag a hang).
  server_->Stop();
}

TEST(ServerTcpTest, ServesOverTcp) {
  ArtifactRegistry registry;
  auto domain = std::make_unique<IntervalDomain>();
  PrivHPOptions options;
  options.expected_n = 1000;
  auto builder = PrivHPBuilder::Make(domain.get(), options);
  ASSERT_TRUE(builder.ok());
  for (const Point& p : MakeData(1000, 1, 3)) {
    ASSERT_TRUE(builder->Add(p).ok());
  }
  auto generator = std::move(*builder).Finish();
  ASSERT_TRUE(generator.ok());
  ASSERT_TRUE(registry
                  .Publish("tcp", ServedArtifact::Make(
                                      std::move(domain),
                                      std::move(*generator), "test"))
                  .ok());

  ServerOptions server_options;
  server_options.tcp_port = 0;  // ephemeral
  server_options.num_workers = 2;
  auto server = PrivHPServer::Start(&registry, server_options);
  ASSERT_TRUE(server.ok());
  ASSERT_GT((*server)->tcp_port(), 0);

  auto client = PrivHPClient::ConnectTcp("127.0.0.1", (*server)->tcp_port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
  auto points = client->Sample("tcp", 100, 9);
  ASSERT_TRUE(points.ok());
  EXPECT_EQ(points->size(), 100u);
  (*server)->Stop();
}

TEST(ServerIdleTimeoutTest, StalledConnectionFreesTheWorker) {
  const std::string path = ::testing::TempDir() + "/srv_idle_" +
                           std::to_string(::getpid()) + ".sock";
  ArtifactRegistry registry;
  ServerOptions options;
  options.unix_path = path;
  options.num_workers = 1;
  options.idle_timeout_seconds = 1;
  auto server = PrivHPServer::Start(&registry, options);
  ASSERT_TRUE(server.ok());

  // A peer that connects and never sends a request parks the only
  // worker; the idle timeout must drop it so the queued client below
  // still gets served.
  auto stalled = ConnectUnix(path);
  ASSERT_TRUE(stalled.ok());

  auto client = PrivHPClient::ConnectUnix(path);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
  (*server)->Stop();
  std::remove(path.c_str());
}

TEST(ServerIdleTimeoutTest, StalledIngestFreesTheWorker) {
  const std::string path = ::testing::TempDir() + "/srv_ingest_idle_" +
                           std::to_string(::getpid()) + ".sock";
  ArtifactRegistry registry;
  ServerOptions options;
  options.unix_path = path;
  options.num_workers = 1;
  options.idle_timeout_seconds = 1;
  auto server = PrivHPServer::Start(&registry, options);
  ASSERT_TRUE(server.ok());

  // Open an ingest session, receive the acknowledgment, then go silent:
  // the idle timeout must abandon the stream mid-ingest, not just
  // between requests.
  auto sock = ConnectUnix(path);
  ASSERT_TRUE(sock.ok());
  ServiceRequest spec;
  spec.op = ServiceOp::kIngest;
  spec.artifact = "stalled";
  spec.dim = 1;
  spec.n = 100;
  ASSERT_TRUE(testing::WriteFrame(*sock, EncodeIngestRequest(spec)).ok());
  FrameReader reader;
  std::string frame;
  WireReader payload;
  auto more = testing::ReadFrame(*sock, &reader, &frame);
  ASSERT_TRUE(more.ok() && *more);
  ASSERT_TRUE(ParseResponse(frame, &payload).ok());

  auto client = PrivHPClient::ConnectUnix(path);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
  (*server)->Stop();
  std::remove(path.c_str());
}

TEST(ServerStartTest, RejectsBadConfigurations) {
  ArtifactRegistry registry;
  ServerOptions no_listener;
  EXPECT_TRUE(
      PrivHPServer::Start(&registry, no_listener).status().IsInvalidArgument());

  ServerOptions bad_workers;
  bad_workers.tcp_port = 0;
  bad_workers.num_workers = 0;
  EXPECT_TRUE(PrivHPServer::Start(&registry, bad_workers)
                  .status()
                  .IsInvalidArgument());

  ServerOptions null_registry;
  null_registry.tcp_port = 0;
  EXPECT_TRUE(PrivHPServer::Start(nullptr, null_registry)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace privhp
