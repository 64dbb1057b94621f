// The socket-free request handlers (service/handlers.h): every payload
// decodes to exactly what the in-process ServedArtifact query returns,
// over a heap, an mmapped and a buffer-pooled artifact, and every
// rejection carries the status the server puts on the wire. No server,
// no sockets.

#include "service/handlers.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/builder.h"
#include "domain/hypercube_domain.h"
#include "domain/interval_domain.h"
#include "storage/artifact_packer.h"

namespace privhp {
namespace {

std::shared_ptr<const ServedArtifact> BuildArtifact(int dim) {
  std::unique_ptr<Domain> domain;
  if (dim == 1) {
    domain = std::make_unique<IntervalDomain>();
  } else {
    domain = std::make_unique<HypercubeDomain>(dim);
  }
  constexpr size_t kN = 4000;
  PrivHPOptions options;
  options.expected_n = kN;
  options.seed = 11;
  auto builder = PrivHPBuilder::Make(domain.get(), options);
  EXPECT_TRUE(builder.ok());
  RandomEngine rng(3);
  for (size_t i = 0; i < kN; ++i) {
    Point p(dim);
    for (double& x : p) x = rng.UniformDouble() * rng.UniformDouble();
    EXPECT_TRUE(builder->Add(p).ok());
  }
  auto generator = std::move(*builder).Finish();
  EXPECT_TRUE(generator.ok());
  return ServedArtifact::Make(std::move(domain), std::move(*generator),
                              "test");
}

// The OK frame's payload (status byte stripped); fails the test on an
// error reply. The reader views \p reply, which must outlive it.
WireReader Payload(const Result<std::string>& reply) {
  WireReader payload;
  if (!reply.ok()) {
    ADD_FAILURE() << reply.status().ToString();
    return payload;
  }
  EXPECT_TRUE(ParseResponse(*reply, &payload).ok());
  return payload;
}

ServiceRequest Request(ServiceOp op, const std::string& artifact) {
  ServiceRequest req;
  req.op = op;
  req.artifact = artifact;
  return req;
}

class HandlersTest : public ::testing::Test {
 protected:
  static constexpr const char* kReprs[] = {"heap", "mmap", "pool"};

  void SetUp() override {
    heap_ = BuildArtifact(1);
    path_ = ::testing::TempDir() + "/handlers_" +
            std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".phx";
    storage::PackOptions pack;
    pack.page_size = 4096;
    ASSERT_TRUE(
        storage::PackArtifact(heap_->generator().tree(), path_, pack).ok());
    auto mmap = ServedArtifact::FromPagedFile(path_, {});
    ASSERT_TRUE(mmap.ok());
    storage::PagedReadOptions pooled;
    pooled.use_buffer_pool = true;
    pooled.pool_bytes = 2 * 4096;  // two frames: reads evict
    auto pool = ServedArtifact::FromPagedFile(path_, pooled);
    ASSERT_TRUE(pool.ok());
    ASSERT_EQ((*mmap)->representation(),
              ServedArtifact::Representation::kMmap);
    ASSERT_EQ((*pool)->representation(),
              ServedArtifact::Representation::kPool);
    ASSERT_TRUE(registry_.Publish("heap", heap_).ok());
    ASSERT_TRUE(registry_.Publish("mmap", *mmap).ok());
    ASSERT_TRUE(registry_.Publish("pool", *pool).ok());
    ASSERT_TRUE(registry_.Publish("square", BuildArtifact(2)).ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::shared_ptr<const ServedArtifact> Get(const std::string& name) {
    auto artifact = registry_.Get(name);
    EXPECT_TRUE(artifact.ok());
    return *artifact;
  }

  std::shared_ptr<const ServedArtifact> heap_;
  std::string path_;
  ArtifactRegistry registry_;
};

TEST_F(HandlersTest, RangePayloadIsTheInProcessRangeMass) {
  for (const char* name : kReprs) {
    SCOPED_TRACE(name);
    const auto artifact = Get(name);
    for (int level = 0; level <= 8; ++level) {
      for (uint64_t index : {uint64_t{0}, (uint64_t{1} << level) / 3,
                             (uint64_t{1} << level) - 1}) {
        ServiceRequest req = Request(ServiceOp::kRange, name);
        req.level = static_cast<uint32_t>(level);
        req.index = index;
        const Result<std::string> reply = HandleRange(req, registry_);
        WireReader payload = Payload(reply);
        const Result<double> expected =
            artifact->RangeMass(CellId{level, index});
        ASSERT_TRUE(expected.ok());
        auto fraction = payload.Double();
        ASSERT_TRUE(fraction.ok());
        EXPECT_EQ(*fraction, *expected);
        // Bit-identical whichever representation answers.
        EXPECT_EQ(*fraction, *heap_->RangeMass(CellId{level, index}));
        EXPECT_TRUE(payload.AtEnd());
      }
    }
  }
}

TEST_F(HandlersTest, QuantilePayloadIsTheInProcessQuantiles) {
  const std::vector<double> qs = {0.0, 0.01, 0.25, 0.5, 0.9, 0.999, 1.0};
  const auto reference = heap_->Quantiles(qs);
  ASSERT_TRUE(reference.ok());
  for (const char* name : kReprs) {
    SCOPED_TRACE(name);
    ServiceRequest req = Request(ServiceOp::kQuantile, name);
    req.qs = qs;
    const Result<std::string> reply = HandleQuantile(req, registry_);
    WireReader payload = Payload(reply);
    const auto expected = Get(name)->Quantiles(qs);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(*expected, *reference);
    auto count = payload.U32();
    ASSERT_TRUE(count.ok());
    ASSERT_EQ(*count, qs.size());
    for (double value : *expected) {
      auto decoded = payload.Double();
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(*decoded, value);
    }
    EXPECT_TRUE(payload.AtEnd());
  }
}

TEST_F(HandlersTest, HeavyPayloadIsTheInProcessHeavyHitters) {
  constexpr double kThreshold = 0.05;
  const auto reference = heap_->Heavy(kThreshold);
  ASSERT_TRUE(reference.ok());
  ASSERT_GT(reference->size(), 1u);
  for (const char* name : kReprs) {
    SCOPED_TRACE(name);
    ServiceRequest req = Request(ServiceOp::kHeavy, name);
    req.threshold = kThreshold;
    const Result<std::string> reply = HandleHeavy(req, registry_);
    WireReader payload = Payload(reply);
    const auto expected = Get(name)->Heavy(kThreshold);
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(expected->size(), reference->size());
    auto count = payload.U32();
    ASSERT_TRUE(count.ok());
    ASSERT_EQ(*count, expected->size());
    for (size_t i = 0; i < expected->size(); ++i) {
      const HeavyCell& cell = (*expected)[i];
      EXPECT_EQ(cell.cell.level, (*reference)[i].cell.level);
      EXPECT_EQ(cell.cell.index, (*reference)[i].cell.index);
      EXPECT_EQ(cell.fraction, (*reference)[i].fraction);
      auto level = payload.U32();
      auto index = payload.U64();
      auto fraction = payload.Double();
      ASSERT_TRUE(level.ok() && index.ok() && fraction.ok());
      EXPECT_EQ(*level, static_cast<uint32_t>(cell.cell.level));
      EXPECT_EQ(*index, cell.cell.index);
      EXPECT_EQ(*fraction, cell.fraction);
    }
    EXPECT_TRUE(payload.AtEnd());
  }
}

TEST_F(HandlersTest, PingListStatsAndAuthAnswerOk) {
  const std::string ok = BeginOkResponse().Take();
  EXPECT_EQ(*HandlePing(), ok);

  const Result<std::string> list = HandleList(registry_);
  WireReader names = Payload(list);
  auto count = names.U32();
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(*count, 4u);
  for (const char* expected : {"heap", "mmap", "pool", "square"}) {
    auto name = names.String();
    ASSERT_TRUE(name.ok());
    EXPECT_EQ(*name, expected);
  }
  EXPECT_TRUE(names.AtEnd());

  obs::MetricsRegistry metrics;
  metrics.GetCounter("op.ping.requests")->Add(7);
  const Result<std::string> stats = HandleStats(metrics.Snapshot());
  WireReader snapshot = Payload(stats);
  auto decoded = DecodeStatsSnapshot(&snapshot);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->CounterOr("op.ping.requests"), 7u);

  ServiceRequest auth = Request(ServiceOp::kAuth, "");
  auth.token = "s3cret";
  EXPECT_EQ(*HandleAuth(auth, "s3cret"), ok);
  EXPECT_EQ(*HandleAuth(auth, ""), ok);  // no token configured
}

TEST_F(HandlersTest, RejectionsCarryTheWireStatus) {
  // Unknown artifact, for every read.
  EXPECT_TRUE(HandleRange(Request(ServiceOp::kRange, "ghost"), registry_)
                  .status()
                  .IsInvalidArgument());
  ServiceRequest quantile = Request(ServiceOp::kQuantile, "ghost");
  quantile.qs = {0.5};
  EXPECT_TRUE(HandleQuantile(quantile, registry_).status().IsInvalidArgument());
  ServiceRequest heavy = Request(ServiceOp::kHeavy, "ghost");
  heavy.threshold = 0.1;
  EXPECT_TRUE(HandleHeavy(heavy, registry_).status().IsInvalidArgument());

  // RANGE outside the cell grid: level > 62, or index >= 2^level.
  for (const char* name : kReprs) {
    SCOPED_TRACE(name);
    ServiceRequest range = Request(ServiceOp::kRange, name);
    range.level = 63;
    range.index = 0;
    Status status = HandleRange(range, registry_).status();
    EXPECT_TRUE(status.IsInvalidArgument());
    EXPECT_EQ(status.message(), "cell index out of range for level 63");
    range.level = 3;
    range.index = 8;
    EXPECT_TRUE(HandleRange(range, registry_).status().IsInvalidArgument());
    range.level = 62;
    range.index = uint64_t{1} << 62;
    EXPECT_TRUE(HandleRange(range, registry_).status().IsInvalidArgument());
    range.index = (uint64_t{1} << 62) - 1;  // the last cell is fine
    EXPECT_TRUE(HandleRange(range, registry_).ok());
  }

  // QUANTILE needs a 1-D artifact.
  quantile.artifact = "square";
  EXPECT_TRUE(HandleQuantile(quantile, registry_).status().IsInvalidArgument());

  // AUTH with the wrong token.
  ServiceRequest auth = Request(ServiceOp::kAuth, "");
  auth.token = "nope";
  const Status denied = HandleAuth(auth, "s3cret").status();
  EXPECT_TRUE(denied.IsFailedPrecondition());
  EXPECT_EQ(denied.message(), "authentication failed");
}

}  // namespace
}  // namespace privhp
