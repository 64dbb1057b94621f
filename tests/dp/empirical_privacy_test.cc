// EXP-PRIV: empirical validation of Theorem 2's building blocks. The
// histogram-ratio auditor estimates the observable privacy loss of each
// mechanism on a fixed neighboring pair; the estimate must stay below the
// analytic epsilon (plus estimator slack), and must be clearly positive
// for a mechanism with real signal.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "common/random.h"
#include "eval/dp_audit.h"
#include "sketch/private_sketch.h"

namespace privhp {
namespace {

// Laplace counter: count on X is c, on X' is c+1 (one added element).
TEST(EmpiricalPrivacyTest, LaplaceCounterRespectsEpsilon) {
  const double epsilon = 1.0;
  DpAuditOptions options;
  options.trials = 60000;
  RandomEngine rng(42);
  auto run_x = [&](RandomEngine* r) {
    return 10.0 + r->Laplace(1.0 / epsilon);
  };
  auto run_xp = [&](RandomEngine* r) {
    return 11.0 + r->Laplace(1.0 / epsilon);
  };
  auto result = EstimateEpsilon(run_x, run_xp, options, &rng);
  ASSERT_TRUE(result.ok());
  // The estimator lower-bounds the true loss; it must not exceed epsilon
  // by more than sampling slack, and must detect some loss.
  EXPECT_LE(result->epsilon_hat, epsilon + 0.35);
  EXPECT_GT(result->epsilon_hat, 0.2);
}

TEST(EmpiricalPrivacyTest, HigherEpsilonLeaksMore) {
  DpAuditOptions options;
  options.trials = 60000;
  RandomEngine rng(43);
  auto audit = [&](double epsilon) {
    auto run_x = [epsilon](RandomEngine* r) {
      return 5.0 + r->Laplace(1.0 / epsilon);
    };
    auto run_xp = [epsilon](RandomEngine* r) {
      return 6.0 + r->Laplace(1.0 / epsilon);
    };
    auto result = EstimateEpsilon(run_x, run_xp, options, &rng);
    EXPECT_TRUE(result.ok());
    return result->epsilon_hat;
  };
  EXPECT_LT(audit(0.25), audit(4.0));
}

// A *non-private* counter (no noise) must be flagged with large loss.
TEST(EmpiricalPrivacyTest, NoiselessCounterIsCaught) {
  DpAuditOptions options;
  options.trials = 2000;
  RandomEngine rng(44);
  auto run_x = [](RandomEngine*) { return 10.0; };
  auto run_xp = [](RandomEngine*) { return 11.0; };
  auto result = EstimateEpsilon(run_x, run_xp, options, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(std::isinf(result->epsilon_hat) || result->epsilon_hat > 3.0);
}

// One cell of a private count-min sketch: neighboring inputs differ by one
// update, which touches each row once; the per-cell view must stay within
// the sketch's budget. (The full-table loss is epsilon by sensitivity j;
// a single cell sees at most epsilon/j... bounded by epsilon.)
TEST(EmpiricalPrivacyTest, PrivateSketchCellRespectsEpsilon) {
  const double epsilon = 1.0;
  const size_t width = 32, depth = 4;
  DpAuditOptions options;
  options.trials = 40000;
  RandomEngine rng(45);
  // The release path: accumulate a plain sketch, privatize it, query it.
  auto make_output = [&](bool with_extra_element) {
    return [=](RandomEngine* r) {
      CountMinSketch plain =
          CountMinSketch::Make(width, depth, /*seed=*/7).ValueOrDie();
      plain.Update(3, 5.0);
      if (with_extra_element) plain.Update(3, 1.0);
      return PrivateCountMinSketch::Privatize(std::move(plain), epsilon, r)
          .ValueOrDie()
          .Estimate(3);
    };
  };
  auto result = EstimateEpsilon(make_output(false), make_output(true),
                                options, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->epsilon_hat, epsilon + 0.4);
}

}  // namespace
}  // namespace privhp
