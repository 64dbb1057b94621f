// EXP-F4 — the Section 7 proof pipeline (Figure 4), measured: the W1 cost
// of each analytic step against its lemma's bound.
//
//   Step 1 (Lemma 7): mu_X -> T_exact   (exact top-k pruning)
//   Steps 2+3 (Lemmas 8+9): T_exact -> T_PrivHP (noise + sketches +
//   consistency; measured jointly, since T_approx is an analytic device).
//
// Reported per skew level so the tail-dependence of every step is
// visible.

#include <iostream>

#include <cmath>

#include "common/macros.h"
#include "common/table_printer.h"
#include "core/builder.h"
#include "domain/interval_domain.h"
#include "dp/budget_allocator.h"
#include "eval/tail.h"
#include "eval/wasserstein.h"
#include "eval/workloads.h"
#include "hierarchy/grow_partition.h"
#include "hierarchy/tree_stats.h"

namespace privhp {
namespace {

constexpr size_t kN = 1 << 14;
constexpr int kLStar = 4;
constexpr int kLMax = 11;
constexpr int kGrowTo = 10;
constexpr size_t kK = 16;

class ExactLevelSource : public LevelFrequencySource {
 public:
  ExactLevelSource(const Domain* domain, const std::vector<Point>& data,
                   int max_level) {
    for (int l = 0; l <= max_level; ++l) {
      counts_.push_back(std::move(*LevelCounts(*domain, data, l)));
    }
  }
  double Query(int level, uint64_t index) const override {
    return counts_[level][index];
  }
  const std::vector<double>& level(int l) const { return counts_[l]; }

 private:
  std::vector<std::vector<double>> counts_;
};

double TreeVsDataW1(const Domain& domain, const PartitionTree& tree,
                    const std::vector<Point>& data, int level) {
  auto tree_dist = DistributionAtLevel(tree, level);
  auto data_dist = QuantizeToLevel(domain, data, level);
  PRIVHP_CHECK(tree_dist.ok() && data_dist.ok());
  std::vector<double> centers(size_t{1} << level);
  for (size_t i = 0; i < centers.size(); ++i) {
    centers[i] = (static_cast<double>(i) + 0.5) * std::ldexp(1.0, -level);
  }
  return Wasserstein1DDiscrete(centers, *tree_dist, *data_dist);
}

PartitionTree BuildExactPruned(const Domain* domain,
                               const ExactLevelSource& source) {
  auto tree = PartitionTree::Complete(domain, kLStar);
  PRIVHP_CHECK(tree.ok());
  for (int l = 0; l <= kLStar; ++l) {
    for (uint64_t i = 0; i < (uint64_t{1} << l); ++i) {
      tree->node(tree->Find(CellId{l, i})).count = source.level(l)[i];
    }
  }
  GrowOptions grow;
  grow.k = kK;
  grow.l_star = kLStar;
  grow.grow_to = kGrowTo;
  PRIVHP_CHECK(GrowPartition(&(*tree), source, grow).ok());
  return std::move(*tree);
}

}  // namespace
}  // namespace privhp

int main() {
  using namespace privhp;
  std::cout << "EXP-F4: proof-pipeline step costs vs lemma bounds "
               "(n=2^14, k=16, L*=4, L=11)\n\n";

  IntervalDomain domain;
  TablePrinter table("Pipeline (per workload skew)",
                     {"zipf", "W1(muX, T_exact)", "Lemma 7 bound",
                      "W1(muX, T_PrivHP)", "Thm 3 prediction"});

  for (double zipf : {0.0, 1.0, 2.0}) {
    RandomEngine data_rng(12345);
    const auto data = GenerateZipfCells(1, kN, 10, zipf, &data_rng);
    ExactLevelSource source(&domain, data, kLMax);

    // Step 1: exact pruning (Lemma 7).
    const PartitionTree t_exact = BuildExactPruned(&domain, source);
    const double w1_exact = TreeVsDataW1(domain, t_exact, data, kGrowTo);
    const double tail = TailNorm(source.level(kLMax), kK);
    double diam_sum = 0.0;
    for (int l = kLStar + 1; l <= kGrowTo; ++l) {
      diam_sum += domain.CellDiameter(l);
    }
    const double lemma7 = tail / static_cast<double>(kN) * diam_sum;

    // Full mechanism (Theorem 3 prediction = noise + approx terms).
    PrivHPOptions options;
    options.epsilon = 1.0;
    options.k = kK;
    options.expected_n = kN;
    options.l_star = kLStar;
    options.l_max = kLMax;
    options.grow_to = kGrowTo;
    options.sketch_depth = 6;
    options.seed = 777;
    auto builder = PrivHPBuilder::Make(&domain, options);
    PRIVHP_CHECK(builder.ok());
    PRIVHP_CHECK(builder->AddAll(PointBatch::FromPoints(data)).ok());
    const ResolvedPlan plan = builder->plan();
    auto generator = std::move(*builder).Finish();
    PRIVHP_CHECK(generator.ok());
    const double w1_full =
        TreeVsDataW1(domain, generator->tree(), data, kGrowTo);
    const double noise_term =
        NoiseObjective(domain, plan.budget, plan.l_star, plan.k,
                       plan.sketch_depth, static_cast<double>(kN));
    auto approx = PredictedApproxTerm(domain, data, plan.l_star, plan.l_max,
                                      plan.k, plan.sketch_depth);
    PRIVHP_CHECK(approx.ok());

    table.BeginRow();
    table.Cell(zipf);
    table.Cell(w1_exact);
    table.Cell(lemma7);
    table.Cell(w1_full);
    table.Cell(noise_term + *approx);
  }
  table.Print(std::cout);
  std::cout << "Bounds are order bounds: measured values should sit below "
               "or near their bound columns\nand fall with skew.\n";
  return 0;
}
