#include "service/artifact_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "core/builder.h"
#include "domain/interval_domain.h"
#include "domain/ipv4_domain.h"

namespace privhp {
namespace {

// Builds a small released artifact over its own interval domain.
std::shared_ptr<const ServedArtifact> MakeArtifact(uint64_t seed,
                                                   size_t n = 2000) {
  auto domain = std::make_unique<IntervalDomain>();
  PrivHPOptions options;
  options.expected_n = n;
  options.seed = seed;
  auto builder = PrivHPBuilder::Make(domain.get(), options);
  EXPECT_TRUE(builder.ok());
  RandomEngine rng(seed);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(builder->Add({rng.UniformDouble()}).ok());
  }
  auto generator = std::move(*builder).Finish();
  EXPECT_TRUE(generator.ok());
  return ServedArtifact::Make(std::move(domain), std::move(*generator),
                              "test");
}

TEST(ArtifactRegistryTest, PublishGetListRemove) {
  ArtifactRegistry registry;
  EXPECT_TRUE(registry.Get("a").status().IsInvalidArgument());
  ASSERT_TRUE(registry.Publish("a", MakeArtifact(1)).ok());
  ASSERT_TRUE(registry.Publish("b", MakeArtifact(2)).ok());
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.List(), (std::vector<std::string>{"a", "b"}));

  auto artifact = registry.Get("a");
  ASSERT_TRUE(artifact.ok());
  EXPECT_EQ((*artifact)->domain().dimension(), 1);
  EXPECT_GT((*artifact)->generator().TotalMass(), 0.0);

  EXPECT_TRUE(registry.Remove("a"));
  EXPECT_FALSE(registry.Remove("a"));
  EXPECT_EQ(registry.size(), 1u);
}

// A heap artifact compiles its alias table on its first SAMPLE, not at
// publish; its resident bytes charge the table's bound throughout.
TEST(ArtifactRegistryTest, HeapArtifactCompilesOnFirstSample) {
  auto artifact = MakeArtifact(11);
  const PrivHPGenerator& generator = artifact->generator();
  const size_t resident = artifact->ResidentBytes();
  EXPECT_EQ(resident, generator.MemoryBytes() +
                          CompiledSampler::MemoryBytesBound(generator.tree()));
  ASSERT_TRUE(artifact->RangeMass(CellId{1, 0}).ok());
  ASSERT_TRUE(artifact->Quantiles({0.5}).ok());
  ASSERT_TRUE(artifact->Heavy(0.1).ok());
  ASSERT_TRUE(artifact->ExportBlob().ok());
  EXPECT_FALSE(generator.sampler_compiled());

  CollectingSink sink;
  RandomEngine rng(3);
  ASSERT_TRUE(artifact->GenerateTo(10, &rng, &sink).ok());
  EXPECT_TRUE(generator.sampler_compiled());
  EXPECT_EQ(artifact->ResidentBytes(), resident);
  EXPECT_LE(generator.MemoryBytes() + generator.sampler().MemoryBytes(),
            resident);
}

TEST(ArtifactRegistryTest, RejectsEmptyNameAndNullArtifact) {
  ArtifactRegistry registry;
  EXPECT_TRUE(registry.Publish("", MakeArtifact(1)).IsInvalidArgument());
  EXPECT_TRUE(registry.Publish("x", nullptr).IsInvalidArgument());
}

TEST(ArtifactRegistryTest, GetKeepsArtifactAliveAcrossHotSwapAndRemove) {
  ArtifactRegistry registry;
  ASSERT_TRUE(registry.Publish("live", MakeArtifact(1)).ok());
  auto held = registry.Get("live");
  ASSERT_TRUE(held.ok());
  const double mass_before = (*held)->generator().TotalMass();

  // Hot-swap, then remove entirely; the held reference must stay valid.
  ASSERT_TRUE(registry.Publish("live", MakeArtifact(99)).ok());
  EXPECT_TRUE(registry.Remove("live"));
  RandomEngine rng(3);
  EXPECT_EQ((*held)->generator().Sample(&rng).size(), 1u);
  EXPECT_EQ((*held)->generator().TotalMass(), mass_before);
}

TEST(ArtifactRegistryTest, LoadFileReconstructsDomainFromHeader) {
  const std::string path = ::testing::TempDir() + "/registry_load.tree";
  auto artifact = MakeArtifact(5);
  ASSERT_TRUE(artifact->generator().Save(path).ok());

  ArtifactRegistry registry;
  ASSERT_TRUE(registry.LoadFile("loaded", path).ok());
  auto loaded = registry.Get("loaded");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->domain().Name(), "interval[0,1]");
  EXPECT_EQ((*loaded)->generator().TotalMass(),
            artifact->generator().TotalMass());
  EXPECT_EQ((*loaded)->source(), "file:" + path);
  std::remove(path.c_str());
}

TEST(ArtifactRegistryTest, LoadFileRejectsMissingAndV1Files) {
  ArtifactRegistry registry;
  EXPECT_TRUE(
      registry.LoadFile("x", "/nonexistent/path.tree").IsIOError());

  const std::string path = ::testing::TempDir() + "/registry_v1.tree";
  {
    std::ofstream out(path);
    out << "privhp-tree-v1\ninterval[0,1]\n1\n0 0 1 -1 -1\n";
  }
  EXPECT_TRUE(registry.LoadFile("x", path).IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(ArtifactRegistryTest, LoadFileRejectsUnknownDomainName) {
  const std::string path = ::testing::TempDir() + "/registry_geo.tree";
  {
    std::ofstream out(path);
    // GeoDomain trees carry bounding-box geometry the name cannot encode.
    out << "privhp-tree-v2\ngeo\n2\n1\n0 0 1 -1 -1\n";
  }
  ArtifactRegistry registry;
  EXPECT_TRUE(registry.LoadFile("x", path).IsNotImplemented());
  std::remove(path.c_str());
}

// The hot-swap contract under concurrency: readers sample whatever
// version they hold while a writer republishes; run under TSan in CI.
TEST(ArtifactRegistryTest, HotSwapUnderConcurrentReaders) {
  ArtifactRegistry registry;
  ASSERT_TRUE(registry.Publish("hot", MakeArtifact(0, 500)).ok());

  constexpr int kReaders = 4;
  constexpr int kSwaps = 20;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> samples{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t]() {
      RandomEngine rng(1000 + t);
      while (!stop.load()) {
        auto artifact = registry.Get("hot");
        ASSERT_TRUE(artifact.ok());
        for (int i = 0; i < 50; ++i) {
          const Point p = (*artifact)->generator().Sample(&rng);
          ASSERT_EQ(p.size(), 1u);
          ASSERT_GE(p[0], 0.0);
          ASSERT_LE(p[0], 1.0);
        }
        samples.fetch_add(50);
      }
    });
  }
  for (int swap = 1; swap <= kSwaps; ++swap) {
    ASSERT_TRUE(
        registry.Publish("hot", MakeArtifact(swap, 500)).ok());
  }
  // On a loaded single-core machine the swaps can finish before any
  // reader is scheduled; keep serving until every reader has progressed
  // so the test always exercises read-during-swap interleavings.
  while (samples.load() < kReaders * 50u) std::this_thread::yield();
  stop.store(true);
  for (std::thread& r : readers) r.join();
  EXPECT_GT(samples.load(), 0u);
  EXPECT_EQ(registry.size(), 1u);
}

}  // namespace
}  // namespace privhp
