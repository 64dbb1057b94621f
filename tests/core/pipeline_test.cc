// EXP-F4: the proof-pipeline of Section 7 (Figure 4), executed with real
// machinery. We construct T_X (complete, exact), T_exact (exact top-k
// pruning; Lemma 7), and the full T_PrivHP, and check each measured W1
// against the corresponding bound.

#include <gtest/gtest.h>

#include "common/macros.h"

#include <cmath>

#include "baselines/nonprivate.h"
#include "common/random.h"
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

// Exact per-level counts as a frequency source (Step 1 of Section 7).
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

// W1 between a tree's sampling distribution and the empirical data,
// both quantized to `level` cells of [0,1] (exact 1-D discrete W1 on cell
// centers; quantization adds at most one cell diameter).
double TreeVsDataW1(const Domain& domain, const PartitionTree& tree,
                    const std::vector<Point>& data, int level) {
  auto tree_dist = DistributionAtLevel(tree, level);
  auto data_dist = QuantizeToLevel(domain, data, level);
  PRIVHP_CHECK(tree_dist.ok() && data_dist.ok());
  std::vector<double> centers(size_t{1} << level);
  const double w = std::ldexp(1.0, -level);
  for (size_t i = 0; i < centers.size(); ++i) {
    centers[i] = (static_cast<double>(i) + 0.5) * w;
  }
  return Wasserstein1DDiscrete(centers, *tree_dist, *data_dist);
}

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RandomEngine rng(4242);
    data_ = GenerateZipfCells(1, n_, /*level=*/8, /*exponent=*/1.5, &rng);
  }

  static constexpr size_t n_ = 4096;
  static constexpr int l_star_ = 4;
  static constexpr int l_max_ = 10;   // L
  static constexpr int grow_to_ = 9;  // L - 1
  static constexpr size_t k_ = 8;
  IntervalDomain domain_;
  std::vector<Point> data_;
};

// Step 0 sanity: the complete exact tree reproduces mu_X up to the leaf
// cell diameter.
TEST_F(PipelineTest, CompleteExactTreeMatchesData) {
  ExactLevelSource source(&domain_, data_, l_max_);
  auto tree = PartitionTree::Complete(&domain_, l_star_);
  ASSERT_TRUE(tree.ok());
  for (int l = 0; l <= l_star_; ++l) {
    for (uint64_t i = 0; i < (uint64_t{1} << l); ++i) {
      tree->node(tree->Find(CellId{l, i})).count = source.level(l)[i];
    }
  }
  GrowOptions grow;
  grow.k = 1 << 12;  // no pruning
  grow.l_star = l_star_;
  grow.grow_to = grow_to_;
  ASSERT_TRUE(GrowPartition(&(*tree), source, grow).ok());
  const double w1 = TreeVsDataW1(domain_, *tree, data_, grow_to_);
  EXPECT_LT(w1, 1e-9);  // identical at quantization resolution
}

// Step 1 (Lemma 7): exact pruning costs at most
// (||tail_k^L||_1 / n) * sum_{l=L*+1}^{L-1} gamma_l, plus quantization.
TEST_F(PipelineTest, ExactPruningWithinLemma7Bound) {
  ExactLevelSource source(&domain_, data_, l_max_);
  auto tree = PartitionTree::Complete(&domain_, l_star_);
  ASSERT_TRUE(tree.ok());
  for (int l = 0; l <= l_star_; ++l) {
    for (uint64_t i = 0; i < (uint64_t{1} << l); ++i) {
      tree->node(tree->Find(CellId{l, i})).count = source.level(l)[i];
    }
  }
  GrowOptions grow;
  grow.k = k_;
  grow.l_star = l_star_;
  grow.grow_to = grow_to_;
  ASSERT_TRUE(GrowPartition(&(*tree), source, grow).ok());

  const double tail = TailNorm(source.level(l_max_), k_);
  double diam_sum = 0.0;
  for (int l = l_star_ + 1; l <= grow_to_; ++l) {
    diam_sum += domain_.CellDiameter(l);
  }
  const double bound = tail / static_cast<double>(n_) * diam_sum;
  const double quantization = 2.0 * domain_.CellDiameter(grow_to_);
  const double w1 = TreeVsDataW1(domain_, *tree, data_, grow_to_);
  EXPECT_LE(w1, bound + quantization) << "tail=" << tail;
}

// Skew comparison: pruning a heavier-tailed dataset costs more (the
// monotonicity Lemma 7 predicts through ||tail_k||).
TEST_F(PipelineTest, PruningCostDecreasesWithSkew) {
  auto pruning_cost = [&](double exponent) {
    RandomEngine rng(777);
    const auto data = GenerateZipfCells(1, n_, 8, exponent, &rng);
    ExactLevelSource source(&domain_, data, l_max_);
    auto tree = PartitionTree::Complete(&domain_, l_star_);
    PRIVHP_CHECK(tree.ok());
    for (int l = 0; l <= l_star_; ++l) {
      for (uint64_t i = 0; i < (uint64_t{1} << l); ++i) {
        tree->node(tree->Find(CellId{l, i})).count = source.level(l)[i];
      }
    }
    GrowOptions grow;
    grow.k = k_;
    grow.l_star = l_star_;
    grow.grow_to = grow_to_;
    PRIVHP_CHECK(GrowPartition(&(*tree), source, grow).ok());
    return TreeVsDataW1(domain_, *tree, data, grow_to_);
  };
  // Uniform-over-cells (exponent 0) has maximal tail; exponent 2.5 is
  // heavily concentrated in the top-k cells.
  EXPECT_GT(pruning_cost(0.0), pruning_cost(2.5));
}

// Step 3 (Theorem 3, full mechanism): measured W1 within a constant factor
// of the predicted Delta_noise + Delta_approx (+ resolution).
TEST_F(PipelineTest, FullMechanismWithinTheoremBound) {
  PrivHPOptions options;
  options.epsilon = 1.0;
  options.k = k_;
  options.expected_n = n_;
  options.l_star = l_star_;
  options.l_max = l_max_;
  options.grow_to = grow_to_;
  options.seed = 31337;
  auto builder = PrivHPBuilder::Make(&domain_, options);
  ASSERT_TRUE(builder.ok());
  ASSERT_TRUE(builder->AddAll(PointBatch::FromPoints(data_)).ok());
  const ResolvedPlan plan = builder->plan();
  auto generator = std::move(*builder).Finish();
  ASSERT_TRUE(generator.ok());

  const double w1 =
      TreeVsDataW1(domain_, generator->tree(), data_, grow_to_);

  const double noise_term =
      NoiseObjective(domain_, plan.budget, plan.l_star, plan.k,
                     plan.sketch_depth, static_cast<double>(n_));
  auto approx_term =
      PredictedApproxTerm(domain_, data_, plan.l_star, plan.l_max, plan.k,
                          plan.sketch_depth);
  ASSERT_TRUE(approx_term.ok());
  // Theorem 3's constants are ~10*sqrt(2) and 6; allow x30 total slack for
  // a single run rather than an expectation.
  const double bound = 30.0 * (noise_term + *approx_term) +
                       2.0 * domain_.CellDiameter(grow_to_);
  EXPECT_LE(w1, bound) << "noise=" << noise_term
                       << " approx=" << *approx_term;
  // And the mechanism should clearly beat a data-oblivious uniform
  // generator on this skewed input.
  RandomEngine rng(5);
  const auto uniform = GenerateUniform(1, 4096, &rng);
  const auto synthetic = generator->Generate(4096, &rng);
  EXPECT_LT(Wasserstein1DPoints(synthetic, data_),
            Wasserstein1DPoints(uniform, data_));
}

}  // namespace
}  // namespace privhp
