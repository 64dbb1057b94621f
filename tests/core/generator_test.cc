#include "core/generator.h"

#include <gtest/gtest.h>

#include "common/macros.h"

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/builder.h"
#include "domain/hypercube_domain.h"
#include "eval/workloads.h"

namespace privhp {
namespace {

PrivHPGenerator BuildSmall(const Domain* domain,
                           const std::vector<Point>& data) {
  PrivHPOptions options;
  options.epsilon = 2.0;
  options.k = 8;
  options.expected_n = data.size();
  options.seed = 13;
  auto builder = PrivHPBuilder::Make(domain, options);
  PRIVHP_CHECK(builder.ok());
  PRIVHP_CHECK(builder->AddAll(PointBatch::FromPoints(data)).ok());
  auto generator = std::move(*builder).Finish();
  PRIVHP_CHECK(generator.ok());
  return std::move(*generator);
}

TEST(GeneratorTest, SamplesStayInDomain) {
  HypercubeDomain domain(2);
  RandomEngine rng(17);
  const PrivHPGenerator generator =
      BuildSmall(&domain, GenerateGaussianMixture(2, 2000, 3, 0.05, &rng));
  const auto samples = generator.Generate(500, &rng);
  ASSERT_EQ(samples.size(), 500u);
  for (const Point& p : samples) EXPECT_TRUE(domain.Contains(p));
}

TEST(GeneratorTest, TotalMassNearN) {
  HypercubeDomain domain(2);
  RandomEngine rng(19);
  const size_t n = 4000;
  const PrivHPGenerator generator =
      BuildSmall(&domain, GenerateUniform(2, n, &rng));
  // Root noise is Laplace with modest scale: mass should be close to n.
  EXPECT_NEAR(generator.TotalMass(), static_cast<double>(n),
              0.05 * static_cast<double>(n));
}

TEST(GeneratorTest, SaveLoadPreservesSamplingDistribution) {
  HypercubeDomain domain(2);
  RandomEngine rng(23);
  const PrivHPGenerator generator =
      BuildSmall(&domain, GenerateGaussianMixture(2, 1500, 2, 0.04, &rng));
  const std::string path = ::testing::TempDir() + "/privhp_generator.txt";
  ASSERT_TRUE(generator.Save(path).ok());
  auto loaded = PrivHPGenerator::Load(&domain, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  // Identical trees => identical samples under the same seed.
  RandomEngine rng_a(99), rng_b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(generator.Sample(&rng_a), loaded->Sample(&rng_b));
  }
  std::remove(path.c_str());
}

TEST(GeneratorTest, MemoryMatchesTree) {
  HypercubeDomain domain(2);
  RandomEngine rng(29);
  const PrivHPGenerator generator =
      BuildSmall(&domain, GenerateUniform(2, 1000, &rng));
  EXPECT_EQ(generator.MemoryBytes(), generator.tree().MemoryBytes());
  EXPECT_GT(generator.MemoryBytes(), 0u);
}

TEST(GeneratorTest, CompilesOnFirstSampleAndCopiesShareTheTable) {
  HypercubeDomain domain(2);
  RandomEngine rng(37);
  const PrivHPGenerator generator =
      BuildSmall(&domain, GenerateUniform(2, 1000, &rng));
  EXPECT_FALSE(generator.sampler_compiled());
  const PrivHPGenerator copy = generator;  // before the compile
  (void)generator.Sample(&rng);
  EXPECT_TRUE(generator.sampler_compiled());
  EXPECT_TRUE(copy.sampler_compiled());
  EXPECT_EQ(&copy.sampler(), &generator.sampler());
}

// Eight threads race to make the first draw; the one compile they share
// must draw exactly what a generator compiled up front draws.
TEST(GeneratorTest, ConcurrentFirstSamplesMatchPrecompiled) {
  HypercubeDomain domain(2);
  RandomEngine rng(41);
  const PrivHPGenerator lazy =
      BuildSmall(&domain, GenerateGaussianMixture(2, 3000, 3, 0.05, &rng));
  const PrivHPGenerator reference(lazy.tree(), lazy.plan());
  (void)reference.sampler();
  ASSERT_FALSE(lazy.sampler_compiled());

  constexpr int kThreads = 8;
  constexpr size_t kPoints = 2000;
  std::vector<std::vector<Point>> drawn(kThreads);
  std::vector<const CompiledSampler*> tables(kThreads, nullptr);
  std::atomic<int> waiting{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      RandomEngine engine(1000 + t);
      drawn[t] = lazy.Generate(kPoints, &engine);
      tables[t] = &lazy.sampler();
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    RandomEngine engine(1000 + t);
    EXPECT_EQ(drawn[t], reference.Generate(kPoints, &engine)) << t;
    EXPECT_EQ(tables[t], tables[0]) << t;
  }
}

TEST(GeneratorTest, LoadRejectsMissingFile) {
  HypercubeDomain domain(2);
  EXPECT_FALSE(PrivHPGenerator::Load(&domain, "/no/such/file").ok());
}

// Regression for the PR-1 CLI bug: `privhp sample --dim 2` against a
// dim-1 tree must error instead of fabricating 2-D points.
TEST(GeneratorTest, LoadRejectsWrongDomainDimension) {
  HypercubeDomain dim1(1);
  RandomEngine rng(31);
  const PrivHPGenerator generator =
      BuildSmall(&dim1, GenerateUniform(1, 1000, &rng));
  const std::string path = ::testing::TempDir() + "/privhp_dim1.txt";
  ASSERT_TRUE(generator.Save(path).ok());

  HypercubeDomain dim2(2);
  auto loaded = PrivHPGenerator::Load(&dim2, path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();

  // The matching domain still loads.
  EXPECT_TRUE(PrivHPGenerator::Load(&dim1, path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace privhp
