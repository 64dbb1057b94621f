#include "core/generator.h"

#include <gtest/gtest.h>

#include "common/macros.h"

#include <cstdio>

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
