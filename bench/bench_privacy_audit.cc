// EXP-PRIV — Theorem 2, audited: empirical privacy-loss estimates for the
// mechanism's two building blocks (per-level noisy counter, private
// sketch cell) on fixed neighboring inputs, across budgets. The estimator
// lower-bounds the true loss, so estimates must sit below the analytic
// epsilon line.

#include <iostream>

#include <cmath>
#include <utility>

#include "common/macros.h"
#include "common/table_printer.h"
#include "eval/dp_audit.h"
#include "sketch/private_sketch.h"

int main() {
  using namespace privhp;
  std::cout << "EXP-PRIV: empirical privacy audit of PrivHP components\n\n";

  RandomEngine rng(90210);
  DpAuditOptions options;
  options.trials = 40000;

  TablePrinter table("Empirical epsilon-hat vs analytic epsilon",
                     {"component", "epsilon", "epsilon-hat", "bins"});

  for (double epsilon : {0.25, 0.5, 1.0, 2.0}) {
    auto counter = EstimateEpsilon(
        [epsilon](RandomEngine* r) {
          return 20.0 + r->Laplace(1.0 / epsilon);
        },
        [epsilon](RandomEngine* r) {
          return 21.0 + r->Laplace(1.0 / epsilon);
        },
        options, &rng);
    PRIVHP_CHECK(counter.ok());
    table.BeginRow();
    table.Cell(std::string("noisy counter"));
    table.Cell(epsilon);
    table.Cell(counter->epsilon_hat);
    table.Cell(static_cast<uint64_t>(counter->bins_used));
  }

  for (double epsilon : {0.5, 1.0, 2.0}) {
    auto make = [epsilon](bool extra) {
      // The release path: accumulate, privatize once, then query.
      return [epsilon, extra](RandomEngine* r) {
        CountMinSketch plain =
            CountMinSketch::Make(32, 4, /*seed=*/3).ValueOrDie();
        plain.Update(11, 8.0);
        if (extra) plain.Update(11, 1.0);
        return PrivateCountMinSketch::Privatize(std::move(plain), epsilon, r)
            .ValueOrDie()
            .Estimate(11);
      };
    };
    auto cell = EstimateEpsilon(make(false), make(true), options, &rng);
    PRIVHP_CHECK(cell.ok());
    table.BeginRow();
    table.Cell(std::string("private sketch estimate"));
    table.Cell(epsilon);
    table.Cell(cell->epsilon_hat);
    table.Cell(static_cast<uint64_t>(cell->bins_used));
  }
  table.Print(std::cout);
  std::cout << "PASS criterion: epsilon-hat <= epsilon (+ estimator "
               "slack) on every row.\n";
  return 0;
}
