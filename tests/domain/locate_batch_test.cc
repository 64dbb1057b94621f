// Domain::LocateBatch is the one batched locate the ingest path uses: it
// must return exactly Locate(x, level) per point, for every domain, at
// every level, at every SIMD tier, including points on cell boundaries
// and on the domain's upper bound (the clamp). The LocatePathBatch
// wrapper must expand those leaf keys into the level-major prefix rows.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/simd.h"
#include "domain/geo_domain.h"
#include "domain/hypercube_domain.h"
#include "domain/interval_domain.h"
#include "domain/ipv4_domain.h"

namespace privhp {
namespace {

struct Case {
  std::string label;
  std::unique_ptr<Domain> domain;
  PointBatch points;
};

// Random interior points plus every corner of the box and the midpoint
// of each coordinate (an exact cut boundary at every level).
PointBatch BoxPoints(const std::vector<double>& lo,
                     const std::vector<double>& hi, uint64_t seed) {
  const int d = static_cast<int>(lo.size());
  PointBatch batch(d);
  RandomEngine rng(seed);
  Point x(d);
  for (int i = 0; i < 300; ++i) {
    for (int c = 0; c < d; ++c) x[c] = rng.UniformDouble(lo[c], hi[c]);
    batch.AppendPoint(x);
  }
  for (int corner = 0; corner < (1 << d); ++corner) {
    for (int c = 0; c < d; ++c) x[c] = (corner >> c) & 1 ? hi[c] : lo[c];
    batch.AppendPoint(x);
  }
  for (int c = 0; c < d; ++c) x[c] = 0.5 * (lo[c] + hi[c]);
  batch.AppendPoint(x);
  for (int c = 0; c < d; ++c) {
    x[c] = lo[c] + 0.25 * (hi[c] - lo[c]);
    batch.AppendPoint(x);
  }
  return batch;
}

std::vector<Case> Cases() {
  std::vector<Case> cases;
  cases.push_back({"interval", std::make_unique<IntervalDomain>(),
                   BoxPoints({0.0}, {1.0}, 1)});
  cases.push_back({"hypercube-2d", std::make_unique<HypercubeDomain>(2),
                   BoxPoints({0.0, 0.0}, {1.0, 1.0}, 2)});
  cases.push_back({"hypercube-3d", std::make_unique<HypercubeDomain>(3),
                   BoxPoints({0.0, 0.0, 0.0}, {1.0, 1.0, 1.0}, 3)});
  cases.push_back({"geo",
                   std::make_unique<GeoDomain>(-34.2, 71.5, -25.0, 45.0),
                   BoxPoints({-34.2, -25.0}, {71.5, 45.0}, 4)});
  PointBatch addresses(1);
  RandomEngine rng(5);
  for (uint32_t address : {0u, 1u, 0x7FFFFFFFu, 0x80000000u, 0xC0A80101u,
                           0xFFFFFFFEu, 0xFFFFFFFFu}) {
    addresses.AppendPoint(Ipv4Domain::FromAddress(address));
  }
  for (int i = 0; i < 300; ++i) {
    addresses.AppendPoint(Ipv4Domain::FromAddress(
        static_cast<uint32_t>(rng.UniformInt(uint64_t{1} << 32))));
  }
  cases.push_back(
      {"ipv4", std::make_unique<Ipv4Domain>(), std::move(addresses)});
  return cases;
}

TEST(LocateBatchTest, EqualsLocateAtEveryLevelAndSimdTier) {
  for (const Case& c : Cases()) {
    const Domain& domain = *c.domain;
    const PointBatch& points = c.points;
    ASSERT_TRUE(domain.ValidateBatch(points).ok()) << c.label;
    std::vector<uint64_t> keys(points.size());
    for (int tier = 0; tier <= static_cast<int>(DetectedSimdLevel());
         ++tier) {
      ForceSimdLevel(static_cast<SimdLevel>(tier));
      for (int level = 0; level <= domain.max_level(); ++level) {
        domain.LocateBatch(points.data(), points.dim(), points.size(), level,
                           keys.data());
        for (size_t i = 0; i < points.size(); ++i) {
          ASSERT_EQ(keys[i], domain.Locate(points.At(i), level))
              << c.label << ", tier "
              << SimdLevelName(static_cast<SimdLevel>(tier)) << ", level "
              << level << ", point " << i;
        }
      }
    }
    ClearForcedSimdLevel();
  }
}

TEST(LocateBatchTest, LocatePathBatchExpandsLeafKeysByShifts) {
  for (const Case& c : Cases()) {
    const Domain& domain = *c.domain;
    const PointBatch& points = c.points;
    const size_t n = points.size();
    for (int max : {0, 1, 7, 23, domain.max_level()}) {
      std::vector<uint64_t> leaves(n);
      domain.LocateBatch(points.data(), points.dim(), n, max, leaves.data());
      std::vector<uint64_t> path((static_cast<size_t>(max) + 1) * n);
      domain.LocatePathBatch(points, max, path.data());
      for (int l = 0; l <= max; ++l) {
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(path[static_cast<size_t>(l) * n + i],
                    leaves[i] >> (max - l))
              << c.label << ", max " << max << ", level " << l << ", point "
              << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace privhp
