// Domain::CellBoundsBatch must write, bit for bit, what CellBoundsFor
// writes per cell: CompiledSampler builds its bounds tables with the
// batch call, and packed artifacts store those tables verbatim.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "domain/geo_domain.h"
#include "domain/hypercube_domain.h"
#include "domain/interval_domain.h"
#include "domain/ipv4_domain.h"
#include "hierarchy/partition_tree.h"

namespace privhp {
namespace {

// Leaves of a tree complete to depth 3 with random leaves grown in
// chains down to \p max_level, in pre-order: leaf levels are mixed, and
// neighbours share prefixes of every length.
std::vector<CellId> MixedLevelLeaves(const Domain* domain, int max_level,
                                     uint64_t seed) {
  auto complete = PartitionTree::Complete(domain, 3);
  PRIVHP_CHECK(complete.ok());
  PartitionTree tree = std::move(*complete);
  RandomEngine rng(seed);
  for (int chain = 0; chain < 40; ++chain) {
    const std::vector<NodeId> leaves = tree.Leaves();
    NodeId id = leaves[rng.UniformInt(leaves.size())];
    const int depth = static_cast<int>(rng.UniformInt(max_level + 1));
    while (tree.node(id).cell.level < std::min(depth, max_level)) {
      const NodeId left = tree.AddChildren(id);
      id = left + static_cast<NodeId>(rng.UniformInt(2));
    }
  }
  std::vector<CellId> cells;
  for (NodeId id : tree.Leaves()) cells.push_back(tree.node(id).cell);
  return cells;
}

// Runs the batch over \p cells and checks every row against
// CellBoundsFor with memcmp (so -0.0 vs 0.0 or a last-ulp difference
// fails). Returns the batch's answer.
bool ExpectBatchMatchesPerCell(const Domain& domain,
                               const std::vector<CellId>& cells,
                               const std::string& label) {
  const size_t d = static_cast<size_t>(domain.dimension());
  std::vector<double> lo(cells.size() * d);
  std::vector<double> hi(cells.size() * d);
  const bool batched =
      domain.CellBoundsBatch(cells.data(), cells.size(), lo.data(),
                             hi.data());
  std::vector<double> one_lo(d);
  std::vector<double> one_hi(d);
  for (size_t s = 0; s < cells.size(); ++s) {
    const bool single = domain.CellBoundsFor(cells[s].level, cells[s].index,
                                             one_lo.data(), one_hi.data());
    EXPECT_EQ(batched, single) << label << ": slot " << s;
    if (!single) return batched;
    EXPECT_EQ(std::memcmp(lo.data() + s * d, one_lo.data(),
                          d * sizeof(double)),
              0)
        << label << ": lo of slot " << s << " (level " << cells[s].level
        << ", index " << cells[s].index << ")";
    EXPECT_EQ(std::memcmp(hi.data() + s * d, one_hi.data(),
                          d * sizeof(double)),
              0)
        << label << ": hi of slot " << s << " (level " << cells[s].level
        << ", index " << cells[s].index << ")";
  }
  return batched;
}

struct NamedDomain {
  std::string name;
  std::unique_ptr<Domain> domain;
};

std::vector<NamedDomain> BoxDomains() {
  std::vector<NamedDomain> out;
  out.push_back({"interval", std::make_unique<IntervalDomain>()});
  out.push_back({"hypercube-2", std::make_unique<HypercubeDomain>(2)});
  out.push_back({"hypercube-3", std::make_unique<HypercubeDomain>(3)});
  out.push_back(
      {"geo", std::make_unique<GeoDomain>(40.49, 40.92, -74.27, -73.68)});
  return out;
}

TEST(CellBoundsBatchTest, PreOrderLeavesMatchPerCellBounds) {
  for (const NamedDomain& nd : BoxDomains()) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      const std::vector<CellId> cells =
          MixedLevelLeaves(nd.domain.get(), nd.domain->max_level(), seed);
      ASSERT_GT(cells.size(), 8u);
      EXPECT_TRUE(ExpectBatchMatchesPerCell(*nd.domain, cells, nd.name));
    }
  }
}

// Any order is correct, not only pre-order: the shared prefix is
// computed, never assumed.
TEST(CellBoundsBatchTest, ShuffledCellsMatchPerCellBounds) {
  for (const NamedDomain& nd : BoxDomains()) {
    std::vector<CellId> cells =
        MixedLevelLeaves(nd.domain.get(), nd.domain->max_level(), 9);
    RandomEngine rng(10);
    for (size_t i = cells.size(); i > 1; --i) {
      std::swap(cells[i - 1], cells[rng.UniformInt(i)]);
    }
    EXPECT_TRUE(ExpectBatchMatchesPerCell(*nd.domain, cells, nd.name));
  }
}

// CompiledSampler's uniform fallback is one slot holding the root cell;
// the root also has to reset the walk when it follows deep cells.
TEST(CellBoundsBatchTest, RootSlotAloneAndBetweenDeepCells) {
  for (const NamedDomain& nd : BoxDomains()) {
    const int deep = nd.domain->max_level();
    const uint64_t all_ones = (uint64_t{1} << deep) - 1;
    EXPECT_TRUE(ExpectBatchMatchesPerCell(*nd.domain, {CellId{0, 0}},
                                          nd.name + " root"));
    EXPECT_TRUE(ExpectBatchMatchesPerCell(
        *nd.domain,
        {CellId{deep, all_ones}, CellId{0, 0}, CellId{deep, 0},
         CellId{deep, all_ones}, CellId{1, 1}, CellId{deep, 1}},
        nd.name + " mixed"));
  }
}

// A domain without closed-form bounds says so through the batch too.
TEST(CellBoundsBatchTest, Ipv4HasNoBoundsTables) {
  Ipv4Domain domain;
  EXPECT_FALSE(ExpectBatchMatchesPerCell(
      domain, MixedLevelLeaves(&domain, domain.max_level(), 5), "ipv4"));
  EXPECT_FALSE(
      ExpectBatchMatchesPerCell(domain, {CellId{0, 0}}, "ipv4 root"));
}

}  // namespace
}  // namespace privhp
