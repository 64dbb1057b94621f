// Raw sampling throughput: the legacy root-to-leaf walk vs the compiled
// alias table, with and without the move-through sink path.
//
//   bench_sample [--smoke] [--n N] [--m M] [--dim D] [--repeats R]
//
// Builds one released artifact from a skewed stream (same shape as
// bench_serve), then times five workloads over m draws each:
//
//   walk/cells    TreeSampler::SampleLeafCell      (categorical only)
//   alias/cells   CompiledSampler::SampleLeafCell  (categorical only)
//   walk/points   TreeSampler::Sample -> sink->Add(const Point&)
//   alias/points  CompiledSampler::GenerateTo      (columnar chunks ->
//                                                   sink AddAll)
//   alias/arena   CompiledSampler::SampleTo        (reused PointBatch,
//                                                   SIMD in-cell step)
//
// The cells rows isolate the alias-table gain from the in-cell uniform
// step; the points rows are the serve-path unit of work. Reports the
// median of --repeats runs and the alias/walk speedups; --smoke shrinks
// the workload so the run doubles as a ctest check that the compiled
// path agrees with the walk's distribution and stays deterministic.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/builder.h"
#include "domain/hypercube_domain.h"
#include "domain/interval_domain.h"
#include "hierarchy/compiled_sampler.h"
#include "hierarchy/tree_sampler.h"
#include "io/point_sink.h"

namespace privhp {
namespace {

using bench::CountingSink;

struct Config {
  bool smoke = false;
  size_t n = size_t{1} << 16;
  size_t m = 2'000'000;
  int dim = 1;
  int repeats = 3;
};

double MedianSeconds(int repeats, const std::function<void()>& body) {
  std::vector<double> times;
  times.reserve(repeats);
  for (int r = 0; r < repeats; ++r) {
    bench::Stopwatch watch;
    body();
    times.push_back(watch.Seconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

void PrintRow(const char* workload, size_t m, double seconds,
              double baseline_seconds) {
  std::printf("%14s %10.1f %10.2f %10.0f %9.2fx\n", workload,
              seconds * 1e3, m / seconds / 1e6, seconds * 1e9 / m,
              baseline_seconds / seconds);
}

int RunBench(const Config& config) {
  std::unique_ptr<Domain> domain;
  if (config.dim == 1) {
    domain = std::make_unique<IntervalDomain>();
  } else {
    domain = std::make_unique<HypercubeDomain>(config.dim);
  }
  PrivHPOptions options;
  options.expected_n = config.n;
  options.k = 32;
  options.seed = 42;
  auto builder = PrivHPBuilder::Make(domain.get(), options);
  if (!builder.ok()) {
    std::fprintf(stderr, "%s\n", builder.status().ToString().c_str());
    return 1;
  }
  RandomEngine data_rng(7);
  Point p(config.dim);
  for (size_t i = 0; i < config.n; ++i) {
    for (int c = 0; c < config.dim; ++c) {
      p[c] = data_rng.UniformDouble() * data_rng.UniformDouble();
    }
    if (!builder->Add(p).ok()) return 1;
  }
  auto generator = std::move(*builder).Finish();
  if (!generator.ok()) {
    std::fprintf(stderr, "%s\n", generator.status().ToString().c_str());
    return 1;
  }

  const PartitionTree& tree = generator->tree();
  const TreeSampler walk(&tree);

  bench::Stopwatch compile_watch;
  const CompiledSampler compiled(tree);
  const double compile_ms = compile_watch.Seconds() * 1e3;

  std::printf(
      "bench_sample: n=%zu, dim=%d, m=%zu draws/workload, depth=%d, "
      "%zu leaf cells in table (%s, compiled in %.2f ms)\n",
      config.n, config.dim, config.m, tree.MaxDepth(),
      compiled.num_cells(), bench::FormatBytes(compiled.MemoryBytes()).c_str(),
      compile_ms);
  std::printf("%14s %10s %10s %10s %10s\n", "workload", "total_ms", "Mpts/s",
              "ns/pt", "speedup");

  // Categorical draws only: isolates the O(depth) walk vs O(1) alias
  // lookup, no in-cell uniform step, no Point allocation.
  uint64_t cell_guard = 0;
  const double walk_cells = MedianSeconds(config.repeats, [&]() {
    RandomEngine rng(1001);
    for (size_t i = 0; i < config.m; ++i) {
      cell_guard += walk.SampleLeafCell(&rng).index;
    }
  });
  PrintRow("walk/cells", config.m, walk_cells, walk_cells);
  const double alias_cells = MedianSeconds(config.repeats, [&]() {
    RandomEngine rng(1001);
    for (size_t i = 0; i < config.m; ++i) {
      cell_guard += compiled.SampleLeafCell(&rng).index;
    }
  });
  PrintRow("alias/cells", config.m, alias_cells, walk_cells);

  // Full points into a counting sink: the serve-path unit of work.
  const double walk_points = MedianSeconds(config.repeats, [&]() {
    CountingSink sink;
    RandomEngine rng(2002);
    for (size_t i = 0; i < config.m; ++i) {
      const Point x = walk.Sample(&rng);
      if (!sink.Add(x).ok()) std::abort();
    }
  });
  PrintRow("walk/points", config.m, walk_points, walk_points);
  const double alias_points = MedianSeconds(config.repeats, [&]() {
    CountingSink sink;
    RandomEngine rng(2002);
    if (!compiled.GenerateTo(config.m, &rng, &sink).ok()) std::abort();
  });
  PrintRow("alias/points", config.m, alias_points, walk_points);
  // Columnar arena sampling without sink dispatch: SampleTo fills one
  // reused PointBatch per chunk (phase 1 RNG draws, phase 2 SIMD in-cell
  // transform) — the raw producer cost of the serve path.
  const double alias_arena = MedianSeconds(config.repeats, [&]() {
    RandomEngine rng(2002);
    PointBatch batch;
    constexpr size_t kChunk = 4096;
    for (size_t done = 0; done < config.m;) {
      const size_t take = std::min(kChunk, config.m - done);
      if (!compiled.SampleTo(take, &rng, &batch).ok()) std::abort();
      done += take;
    }
  });
  PrintRow("alias/arena", config.m, alias_arena, walk_points);

  if (cell_guard == 0) std::printf("(guard: %llu)\n",
                                   static_cast<unsigned long long>(cell_guard));

  // Correctness gates (always on, sized for --smoke): the compiled
  // sampler must match the walk's distribution and be seed-deterministic,
  // so a perf regression can't hide a correctness one.
  {
    const size_t draws = 200000;
    std::map<std::pair<int, uint64_t>, double> hist_walk, hist_alias;
    RandomEngine rng_w(31), rng_a(32);
    for (size_t i = 0; i < draws; ++i) {
      const CellId w = walk.SampleLeafCell(&rng_w);
      const CellId a = compiled.SampleLeafCell(&rng_a);
      hist_walk[{w.level, w.index}] += 1.0;
      hist_alias[{a.level, a.index}] += 1.0;
    }
    double l1 = 0.0;
    for (const auto& [cell, count] : hist_walk) {
      auto it = hist_alias.find(cell);
      l1 += std::abs(count - (it == hist_alias.end() ? 0.0 : it->second)) /
            draws;
    }
    for (const auto& [cell, count] : hist_alias) {
      if (hist_walk.find(cell) == hist_walk.end()) l1 += count / draws;
    }
    RandomEngine det_a(55), det_b(55);
    const bool deterministic = compiled.SampleBatch(1000, &det_a) ==
                               compiled.SampleBatch(1000, &det_b);
    // The columnar path (SIMD in-cell transform) must be bit-identical
    // to per-point Sample() under the same seed, not just statistically
    // close.
    RandomEngine col_rng(56), pt_rng(56);
    PointBatch columnar;
    if (!compiled.SampleTo(1000, &col_rng, &columnar).ok()) std::abort();
    bool columnar_identical = true;
    for (size_t i = 0; i < 1000 && columnar_identical; ++i) {
      columnar_identical = compiled.Sample(&pt_rng) == columnar.At(i);
    }
    // Two independent multinomial samples over K cells differ by
    // E[L1] ~ sqrt(2K/draws) from noise alone; 2x that flags a genuinely
    // different distribution (a wrong normalization or a dropped cell
    // lands far above it) without tripping on sampling jitter.
    const double l1_gate = std::max(
        0.05, 2.0 * std::sqrt(2.0 * static_cast<double>(compiled.num_cells()) /
                              static_cast<double>(draws)));
    std::printf("checks: walk-vs-alias L1 distance %.4f (gate %.4f, "
                "draws=%zu), seeded determinism %s, columnar-vs-scalar "
                "bit-equality %s\n",
                l1, l1_gate, draws, deterministic ? "OK" : "FAILED",
                columnar_identical ? "OK" : "FAILED");
    if (l1 > l1_gate || !deterministic || !columnar_identical) {
      std::fprintf(stderr, "bench_sample: correctness gate failed\n");
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace privhp

int main(int argc, char** argv) {
  privhp::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "0";
    };
    if (flag == "--smoke") {
      config.smoke = true;
    } else if (flag == "--n") {
      config.n = std::strtoull(next(), nullptr, 10);
    } else if (flag == "--m") {
      config.m = std::strtoull(next(), nullptr, 10);
    } else if (flag == "--dim") {
      config.dim = std::atoi(next());
    } else if (flag == "--repeats") {
      config.repeats = std::atoi(next());
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (config.smoke) {
    config.n = size_t{1} << 13;
    config.m = 200000;
    config.repeats = 1;
  }
  if (config.repeats < 1) config.repeats = 1;
  // A flag given without a value parses as 0; reject that here instead
  // of aborting later on a degenerate domain or printing inf/nan rows.
  if (config.n == 0 || config.m == 0 || config.dim < 1 || config.dim > 64) {
    std::fprintf(stderr,
                 "bench_sample: --n and --m need positive values, --dim "
                 "must be in [1, 64]\n");
    return 2;
  }
  return privhp::RunBench(config);
}
