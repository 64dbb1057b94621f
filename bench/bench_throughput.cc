// EXP-PERF — Corollary 1's cost model, self-timed (bench_util.h):
//   * stream update cost vs n        (scalar Add vs columnar AddBatch;
//                                     claimed O(log(eps n)) per update)
//   * AddBatch cost vs batch size    (zipf and uniform streams)
//   * AddBatch at the shipped plan   (ns per point and per Count-Min
//                                     row update)
//   * sharded parallel ingestion     (--threads sweep; the merged build
//                                     is bit-identical to 1 thread)
//   * generator build (Finish)       (claimed O(M log n))
//   * synthetic sampling             (O(depth) per point)
//   * PMM build for contrast         (Theta(eps n) memory + work)
//
// Always-on correctness gate (sized for --smoke): the columnar ingest
// path must leave tree counters and sketch cells bit-identical to the
// scalar path, also for a batch of one repeated point, a batch one point
// past the AddBatch window, a small (511-point) window and a window of
// distinct points, and the released artifacts
// (scalar / columnar / BuildParallel streamed at 1, 2 and 4 threads)
// must serialize byte-identically —
// a perf regression fix can't silently fork the two paths. --smoke
// shrinks the workload so the run doubles as a ctest / TSan check of
// concurrent batched ingestion.
//
// usage: bench_throughput [--smoke] [--log2n B] [--threads "1,2,4"]
//                         [--repeats R]

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/pmm.h"
#include "bench_util.h"
#include "common/macros.h"
#include "common/table_printer.h"
#include "core/builder.h"
#include "domain/hypercube_domain.h"
#include "domain/interval_domain.h"
#include "eval/workloads.h"
#include "hierarchy/tree_serialization.h"
#include "io/point_sink.h"

namespace privhp {
namespace {

PrivHPOptions BenchOptions(size_t n) {
  PrivHPOptions options;
  options.epsilon = 1.0;
  options.k = 16;
  options.expected_n = n;
  options.sketch_depth = 6;
  options.seed = 99;
  return options;
}

// Median-of-repeats wall time of `fn`, in seconds.
double TimedMedian(int repeats, const std::function<double()>& fn) {
  std::vector<double> times;
  times.reserve(repeats);
  for (int r = 0; r < repeats; ++r) times.push_back(fn());
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

// The sketch-level updates per point AddBatch makes on \p data fed in
// batches of \p batch points: it sorts every window and makes one update
// per distinct (level, key) pair at levels L*+1..L. Each update costs j
// row hashes.
double SketchUpdatesPerPoint(const Domain& domain, const PointBatch& data,
                             const ResolvedPlan& plan, size_t batch) {
  const int levels = plan.l_max - plan.l_star;
  std::vector<uint64_t> keys(PrivHPShard::kWindow);
  size_t updates = 0;
  for (size_t start = 0; start < data.size(); start += batch) {
    const size_t end = std::min(data.size(), start + batch);
    for (size_t base = start; base < end; base += keys.size()) {
      const size_t n = std::min(keys.size(), end - base);
      domain.LocateBatch(data.row(base), data.dim(), n, plan.l_max,
                         keys.data());
      std::sort(keys.begin(), keys.begin() + n);
      for (int shift = 0; shift < levels; ++shift) {
        for (size_t i = 0; i < n; ++i) {
          updates += i == 0 || (keys[i] >> shift) != (keys[i - 1] >> shift);
        }
      }
    }
  }
  return static_cast<double>(updates) / static_cast<double>(data.size());
}

void StreamUpdateSweep(int repeats, bool smoke) {
  TablePrinter table(
      "stream update (1 thread, scalar Add vs columnar PointBatch; "
      "sketch updates and row hashes per point, after AddBatch's run "
      "aggregation for the columnar path)",
      {"domain", "n", "path", "Mpts/s", "ns/point", "speedup",
       "sketch upd/pt", "hashes/pt"});
  struct Case {
    const char* name;
    int dim;
    size_t n;
  };
  const std::vector<Case> cases =
      smoke ? std::vector<Case>{{"interval", 1, size_t{1} << 16},
                                {"hypercube-2d", 2, size_t{1} << 16}}
            : std::vector<Case>{{"interval", 1, size_t{1} << 16},
                                {"interval", 1, size_t{1} << 18},
                                {"interval", 1, size_t{1} << 20},
                                {"hypercube-2d", 2, size_t{1} << 18}};
  for (const Case& c : cases) {
    HypercubeDomain cube(c.dim == 1 ? 1 : 2);
    IntervalDomain interval;
    const Domain& domain =
        c.dim == 1 ? static_cast<const Domain&>(interval)
                   : static_cast<const Domain&>(cube);
    RandomEngine rng(1);
    // 65536 divides every n in the sweep, so cycling the staged dataset
    // feeds the scalar and columnar paths the identical point multiset.
    const auto data = GenerateZipfCells(c.dim, 65536, 10, 1.2, &rng);
    const double scalar_secs = TimedMedian(repeats, [&] {
      auto builder = PrivHPBuilder::Make(&domain, BenchOptions(c.n));
      PRIVHP_CHECK(builder.ok());
      bench::Stopwatch watch;
      size_t i = 0;
      for (size_t done = 0; done < c.n; ++done) {
        PRIVHP_CHECK(builder->Add(data[i]).ok());
        i = (i + 1) % data.size();
      }
      return watch.Seconds();
    });
    // Columnar: the dataset staged once into an arena, then ingested via
    // AddAll(PointBatch) — the path a file or socket source actually
    // drives (their NextBatch overrides hand over arenas).
    const PointBatch staged = PointBatch::FromPoints(data);
    const double columnar_secs = TimedMedian(repeats, [&] {
      auto builder = PrivHPBuilder::Make(&domain, BenchOptions(c.n));
      PRIVHP_CHECK(builder.ok());
      bench::Stopwatch watch;
      for (size_t done = 0; done < c.n; done += staged.size()) {
        PRIVHP_CHECK(builder->AddAll(staged).ok());
      }
      return watch.Seconds();
    });
    auto plan = PlanParameters(domain, BenchOptions(c.n));
    PRIVHP_CHECK(plan.ok());
    const double scalar_updates = plan->l_max - plan->l_star;
    const double batch_updates =
        SketchUpdatesPerPoint(domain, staged, *plan, staged.size());
    const double secs_for[2] = {scalar_secs, columnar_secs};
    const double updates_for[2] = {scalar_updates, batch_updates};
    const char* path_name[2] = {"scalar", "columnar"};
    for (int path = 0; path < 2; ++path) {
      const double secs = secs_for[path];
      table.BeginRow();
      table.Cell(std::string(c.name));
      table.Cell(static_cast<uint64_t>(c.n));
      table.Cell(std::string(path_name[path]));
      table.Cell(c.n / secs / 1e6);
      table.Cell(secs / c.n * 1e9);
      table.Cell(scalar_secs / secs, 3);
      table.Cell(updates_for[path], 3);
      table.Cell(updates_for[path] * static_cast<double>(plan->sketch_depth),
                 3);
    }
  }
  table.Print(std::cout);
  std::cout << "\n";
}

// Single-thread columnar AddBatch against batch size, on a skewed and a
// uniform stream, up to one full window (16384 points). Every window is
// sorted, so small batches pay the sort with few keys to merge.
void BatchSizeSweep(int repeats, bool smoke) {
  constexpr size_t kWindow = PrivHPShard::kWindow;
  const size_t n = smoke ? size_t{1} << 14 : size_t{1} << 20;
  TablePrinter table(
      "AddBatch against batch size (1 thread, one shard, interval; "
      "sketch updates per point after run aggregation)",
      {"stream", "n", "batch", "Mpts/s", "ns/point", "sketch upd/pt"});
  IntervalDomain domain;
  auto plan = PlanParameters(domain, BenchOptions(n));
  PRIVHP_CHECK(plan.ok());
  RandomEngine rng(3);
  const PointBatch zipf =
      PointBatch::FromPoints(GenerateZipfCells(1, n, 16, 1.1, &rng));
  const PointBatch uniform =
      PointBatch::FromPoints(GenerateUniform(1, n, &rng));
  struct Stream {
    const char* name;
    const PointBatch* data;
  };
  const Stream streams[] = {{"zipf", &zipf}, {"uniform", &uniform}};
  const std::vector<size_t> batch_sizes =
      smoke ? std::vector<size_t>{64, kWindow}
            : std::vector<size_t>{64, 1024, 4096, kWindow};
  for (const Stream& stream : streams) {
    for (size_t batch : batch_sizes) {
      std::vector<PointBatch> batches;
      for (size_t base = 0; base < n; base += batch) {
        PointBatch b(1);
        b.AppendFlat(stream.data->row(base), std::min(batch, n - base));
        batches.push_back(std::move(b));
      }
      const double secs = TimedMedian(repeats, [&] {
        auto builder = PrivHPBuilder::Make(&domain, BenchOptions(n));
        PRIVHP_CHECK(builder.ok());
        auto shard = builder->NewShard();
        PRIVHP_CHECK(shard.ok());
        bench::Stopwatch watch;
        for (const PointBatch& b : batches) {
          PRIVHP_CHECK(shard->AddBatch(b).ok());
        }
        return watch.Seconds();
      });
      const double updates =
          SketchUpdatesPerPoint(domain, *stream.data, *plan, batch);
      table.BeginRow();
      table.Cell(std::string(stream.name));
      table.Cell(static_cast<uint64_t>(n));
      table.Cell(static_cast<uint64_t>(batch));
      table.Cell(n / secs / 1e6);
      table.Cell(secs / n * 1e9);
      table.Cell(updates, 3);
    }
  }
  table.Print(std::cout);
  std::cout << "\n";
}

// Single-thread AddBatch at the shipped plan (eps = 1, k = 32,
// n = 2^23: L* = 15, L = 23 and the automatic 23 x 64 sketch), fed in
// whole windows, on a Zipf and a uniform stream: the sketch levels'
// Count-Min row updates are most of its cost. "row upd/pt" is sketch
// updates per point times the sketch depth; "ns/row upd" divides the
// whole AddBatch time by it.
void ShippedPlanSweep(int repeats, bool smoke) {
  constexpr size_t kWindow = PrivHPShard::kWindow;
  const size_t n = smoke ? kWindow : size_t{1} << 21;
  HypercubeDomain domain(1);
  PrivHPOptions options;
  options.epsilon = 1.0;
  options.k = 32;
  options.expected_n = size_t{1} << 23;
  options.seed = 42;
  auto plan = PlanParameters(domain, options);
  PRIVHP_CHECK(plan.ok());
  TablePrinter table(
      "AddBatch at the shipped plan (1 thread, one shard, " +
          plan->ToString() + ", " + std::to_string(kWindow) +
          "-point batches)",
      {"stream", "n", "row upd/pt", "ns/point", "ns/row upd"});
  RandomEngine rng(5);
  const PointBatch zipf =
      PointBatch::FromPoints(GenerateZipfCells(1, n, 16, 1.1, &rng));
  const PointBatch uniform =
      PointBatch::FromPoints(GenerateUniform(1, n, &rng));
  const std::pair<const char*, const PointBatch*> streams[] = {
      {"zipf", &zipf}, {"uniform", &uniform}};
  for (const auto& [name, data] : streams) {
    std::vector<PointBatch> batches;
    for (size_t base = 0; base < n; base += kWindow) {
      PointBatch b(1);
      b.AppendFlat(data->row(base), std::min(kWindow, n - base));
      batches.push_back(std::move(b));
    }
    const double secs = TimedMedian(repeats, [&] {
      auto builder = PrivHPBuilder::Make(&domain, options);
      PRIVHP_CHECK(builder.ok());
      auto shard = builder->NewShard();
      PRIVHP_CHECK(shard.ok());
      bench::Stopwatch watch;
      for (const PointBatch& b : batches) {
        PRIVHP_CHECK(shard->AddBatch(b).ok());
      }
      return watch.Seconds();
    });
    const double row_updates =
        SketchUpdatesPerPoint(domain, *data, *plan, kWindow) *
        static_cast<double>(plan->sketch_depth);
    const double ns_per_point = secs / static_cast<double>(n) * 1e9;
    table.BeginRow();
    table.Cell(std::string(name));
    table.Cell(static_cast<uint64_t>(n));
    table.Cell(row_updates);
    table.Cell(ns_per_point);
    table.Cell(ns_per_point / row_updates, 3);
  }
  table.Print(std::cout);
  std::cout << "\n";
}

// True iff \p a and \p b hold bit-identical counters and sketch cells;
// otherwise prints the first divergence, naming \p label's path.
bool ShardStateEqual(const PrivHPShard& a, const PrivHPShard& b,
                     const std::string& label) {
  for (size_t i = 0; i < a.counts().size(); ++i) {
    const double x = a.counts()[i];
    const double y = b.counts()[i];
    if (x != y) {
      std::cerr << "gate: counter " << i << " scalar=" << x << " " << label
                << "=" << y << "\n";
      return false;
    }
  }
  for (size_t s = 0; s < a.sketches().size(); ++s) {
    const CountMinSketch& sa = a.sketches()[s];
    const CountMinSketch& sb = b.sketches()[s];
    for (size_t row = 0; row < sa.depth(); ++row) {
      for (size_t col = 0; col < sa.width(); ++col) {
        if (sa.CellValue(row, col) != sb.CellValue(row, col)) {
          std::cerr << "gate: " << label << " sketch " << s << " cell ("
                    << row << ", " << col << ") diverges\n";
          return false;
        }
      }
    }
  }
  return true;
}

// Always-on gate: the columnar path must be bit-identical to the scalar
// path — shard state (exact counters + sketch cells) and the released
// artifact (scalar / columnar / BuildParallel streamed at 1, 2 and 4
// threads all serialize to the same bytes). Returns false (and prints
// why) on any mismatch.
bool BatchedEqualsScalarGate() {
  HypercubeDomain domain(2);
  const size_t n = size_t{1} << 13;
  PrivHPOptions options = BenchOptions(n);
  RandomEngine rng(17);
  const auto data = GenerateZipfCells(2, n, 10, 1.2, &rng);

  auto scalar_builder = PrivHPBuilder::Make(&domain, options);
  auto columnar_builder = PrivHPBuilder::Make(&domain, options);
  PRIVHP_CHECK(scalar_builder.ok() && columnar_builder.ok());

  // Shard-level comparison first: it pins down *where* a divergence
  // lives (a counter vs a sketch row) before noise and growth mix it in.
  // Scalar Add against columnar AddBatch(PointBatch), the SIMD arena
  // path.
  auto scalar_shard = scalar_builder->NewShard();
  auto columnar_shard = columnar_builder->NewShard();
  PRIVHP_CHECK(scalar_shard.ok() && columnar_shard.ok());
  const PointBatch staged = PointBatch::FromPoints(data);
  for (const Point& x : data) PRIVHP_CHECK(scalar_shard->Add(x).ok());
  PRIVHP_CHECK(columnar_shard->AddBatch(staged).ok());
  if (!ShardStateEqual(*scalar_shard, *columnar_shard, "columnar")) {
    return false;
  }
  // Window edges of the columnar path: one repeated point, so a single
  // run carries the whole window; a batch one point past a window
  // (cycling the data); a small window, like a stream's tail; and a full
  // window plus a part of pairwise distinct points, which leave the
  // sort's run merge nothing to merge. Distinct points stay distinct
  // only under a plan with deep levels, so that edge uses the shipped
  // plan at n = 2^23 (L* = 15).
  const PointBatch repeated = PointBatch::FromPoints(
      std::vector<Point>(PrivHPShard::kWindow, data.front()));
  PointBatch past_window(staged.dim());
  while (past_window.size() <= PrivHPShard::kWindow) {
    const size_t left = PrivHPShard::kWindow + 1 - past_window.size();
    past_window.AppendFlat(staged.data(), std::min(staged.size(), left));
  }
  PointBatch small(staged.dim());
  small.AppendFlat(staged.data(), 511);
  PointBatch distinct(2);
  for (size_t i = 1; i <= PrivHPShard::kWindow + 100; ++i) {
    const double v = static_cast<double>(i) * 0.6180339887498949;
    const double w = static_cast<double>(i) * 0.7548776662466927;
    distinct.AppendPoint(Point{v - static_cast<double>(static_cast<int>(v)),
                               w - static_cast<double>(static_cast<int>(w))});
  }
  PrivHPOptions deep = options;
  deep.k = 32;
  deep.expected_n = size_t{1} << 23;
  deep.sketch_depth = 0;
  struct Edge {
    const PointBatch* batch;
    const PrivHPOptions* options;
    const char* label;
  };
  const Edge edges[] = {
      {&repeated, &options, "columnar (repeated point)"},
      {&past_window, &options, "columnar (window + 1)"},
      {&small, &options, "columnar (511-point window)"},
      {&distinct, &deep, "columnar (distinct window + part)"}};
  for (const Edge& edge : edges) {
    auto builder = PrivHPBuilder::Make(&domain, *edge.options);
    PRIVHP_CHECK(builder.ok());
    auto scalar = builder->NewShard();
    auto columnar = builder->NewShard();
    PRIVHP_CHECK(scalar.ok() && columnar.ok());
    for (size_t i = 0; i < edge.batch->size(); ++i) {
      PRIVHP_CHECK(scalar->Add(edge.batch->At(i)).ok());
    }
    PRIVHP_CHECK(columnar->AddBatch(*edge.batch).ok());
    if (!ShardStateEqual(*scalar, *columnar, edge.label)) return false;
  }

  // Artifact-level: released trees must serialize byte-identically.
  auto serialize = [](const PrivHPGenerator& g) {
    std::stringstream ss;
    PRIVHP_CHECK(SaveTree(g.tree(), &ss).ok());
    return ss.str();
  };
  for (const Point& x : data) PRIVHP_CHECK(scalar_builder->Add(x).ok());
  PRIVHP_CHECK(columnar_builder->AddAll(staged).ok());
  auto scalar_gen = std::move(*scalar_builder).Finish();
  auto columnar_gen = std::move(*columnar_builder).Finish();
  PRIVHP_CHECK(scalar_gen.ok() && columnar_gen.ok());
  const std::string scalar_bytes = serialize(*scalar_gen);
  if (scalar_bytes != serialize(*columnar_gen)) {
    std::cerr << "gate: columnar artifact differs from scalar\n";
    return false;
  }
  // The streaming build: with more than one thread its reader and
  // workers exchange whole columnar batches through the queue, which is
  // exactly the concurrent batched ingest path the TSan smoke wants
  // covered.
  for (int threads : {1, 2, 4}) {
    PointBatchSource source(&staged);
    auto parallel_gen =
        PrivHPBuilder::BuildParallel(&domain, options, &source, threads);
    PRIVHP_CHECK(parallel_gen.ok());
    if (scalar_bytes != serialize(*parallel_gen)) {
      std::cerr << "gate: BuildParallel artifact at " << threads
                << " threads differs from scalar\n";
      return false;
    }
  }
  std::cout << "checks: batched-vs-scalar equality OK (shard state + "
            << "released artifact, scalar/columnar/parallel, n="
            << n << "; window edges: repeated point, "
            << PrivHPShard::kWindow + 1 << " and " << small.size()
            << " points, " << PrivHPShard::kWindow + 100
            << " distinct points)\n\n";
  return true;
}

void ThreadSweep(size_t n, const std::vector<int>& thread_counts,
                 int repeats) {
  IntervalDomain domain;
  RandomEngine rng(2);
  const PointBatch data =
      PointBatch::FromPoints(GenerateZipfCells(1, n, 10, 1.2, &rng));
  // Each run streams the in-memory batch through BuildParallel's reader
  // and queue, as a file or socket source would.
  auto build = [&](int threads) {
    PointBatchSource source(&data);
    bench::Stopwatch watch;
    auto generator = PrivHPBuilder::BuildParallel(&domain, BenchOptions(n),
                                                  &source, threads);
    PRIVHP_CHECK(generator.ok());
    return watch.Seconds();
  };
  TablePrinter table(
      "sharded ingestion, n=" + std::to_string(n) + " (BuildParallel)",
      {"threads", "build ms", "Mpts/s", "speedup"});
  std::vector<double> secs_per_count;
  secs_per_count.reserve(thread_counts.size());
  for (int threads : thread_counts) {
    secs_per_count.push_back(
        TimedMedian(repeats, [&] { return build(threads); }));
  }
  // Speedup is always relative to the 1-thread run (measured out-of-band
  // if 1 is not in the sweep), never to whatever entry came first.
  double base_secs;
  const auto one = std::find(thread_counts.begin(), thread_counts.end(), 1);
  if (one != thread_counts.end()) {
    base_secs = secs_per_count[one - thread_counts.begin()];
  } else {
    base_secs = TimedMedian(repeats, [&] { return build(1); });
  }
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    table.BeginRow();
    table.Cell(thread_counts[i]);
    table.Cell(secs_per_count[i] * 1e3);
    table.Cell(n / secs_per_count[i] / 1e6);
    table.Cell(base_secs / secs_per_count[i], 3);
  }
  table.Print(std::cout);
  std::cout << "\n";
}

void FinishAndSample(int repeats) {
  IntervalDomain domain;
  const size_t n = size_t{1} << 14;
  RandomEngine rng(3);
  const PointBatch data =
      PointBatch::FromPoints(GenerateZipfCells(1, n, 10, 1.2, &rng));

  const double finish_secs = TimedMedian(repeats, [&] {
    auto builder = PrivHPBuilder::Make(&domain, BenchOptions(n));
    PRIVHP_CHECK(builder.ok());
    PRIVHP_CHECK(builder->AddAll(data).ok());
    bench::Stopwatch watch;
    auto generator = std::move(*builder).Finish();
    PRIVHP_CHECK(generator.ok());
    return watch.Seconds();
  });

  auto builder = PrivHPBuilder::Make(&domain, BenchOptions(n));
  PRIVHP_CHECK(builder.ok());
  PRIVHP_CHECK(builder->AddAll(data).ok());
  auto generator = std::move(*builder).Finish();
  PRIVHP_CHECK(generator.ok());
  RandomEngine sample_rng(5);
  const size_t samples = 1 << 18;
  const double sample_secs = TimedMedian(repeats, [&] {
    bench::Stopwatch watch;
    for (size_t i = 0; i < samples; ++i) {
      volatile double sink = generator->Sample(&sample_rng)[0];
      (void)sink;
    }
    return watch.Seconds();
  });

  TablePrinter table("finish + sampling, n=2^14",
                     {"phase", "ms", "per-item ns", "artifact mem"});
  table.BeginRow();
  table.Cell(std::string("Finish (grow+consistency)"));
  table.Cell(finish_secs * 1e3);
  table.Cell(finish_secs * 1e9 / n);
  table.Cell(bench::FormatBytes(generator->MemoryBytes()));
  table.BeginRow();
  table.Cell(std::string("Sample x" + std::to_string(samples)));
  table.Cell(sample_secs * 1e3);
  table.Cell(sample_secs * 1e9 / samples);
  table.Cell(bench::FormatBytes(generator->MemoryBytes()));
  table.Print(std::cout);
  std::cout << "\n";
}

void PmmContrast(int repeats) {
  IntervalDomain domain;
  TablePrinter table("PMM contrast (full-memory baseline)",
                     {"n", "build ms", "pmm mem"});
  for (int log_n : {12, 14}) {
    const size_t n = size_t{1} << log_n;
    RandomEngine rng(6);
    const auto data = GenerateZipfCells(1, n, 10, 1.2, &rng);
    PmmOptions options;
    options.epsilon = 1.0;
    size_t bytes = 0;
    const double secs = TimedMedian(repeats, [&] {
      bench::Stopwatch watch;
      auto pmm = BuildPmm(&domain, data, options);
      PRIVHP_CHECK(pmm.ok());
      bytes = (*pmm)->BuildMemoryBytes();
      return watch.Seconds();
    });
    table.BeginRow();
    table.Cell(std::string("2^") + std::to_string(log_n));
    table.Cell(secs * 1e3);
    table.Cell(bench::FormatBytes(bytes));
  }
  table.Print(std::cout);
}

std::vector<int> ParseThreadList(const std::string& csv) {
  std::vector<int> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    const size_t comma = csv.find(',', pos);
    out.push_back(std::atoi(csv.substr(pos, comma - pos).c_str()));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

int Run(int argc, char** argv) {
  bool smoke = false;
  int log2n = 20;
  int repeats = 3;
  std::vector<int> threads = {1, 2, 4};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (smoke) {
    // Small enough for ctest/TSan; the thread sweep and the always-on
    // gate both run the queue-based streaming BuildParallel, so the
    // smoke is a real end-to-end check of concurrent batched ingest.
    // Defaults only: explicit flags below still override them.
    log2n = 14;
    repeats = 1;
    threads = {1, 2, 4};
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) continue;
    const bool known = std::strcmp(argv[i], "--log2n") == 0 ||
                       std::strcmp(argv[i], "--threads") == 0 ||
                       std::strcmp(argv[i], "--repeats") == 0;
    if (!known) {
      std::cerr << "unknown flag " << argv[i] << "\n";
      return 2;
    }
    if (i + 1 >= argc) {
      std::cerr << "flag " << argv[i] << " is missing a value\n";
      return 2;
    }
    if (std::strcmp(argv[i], "--log2n") == 0) {
      log2n = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = ParseThreadList(argv[++i]);
    } else if (std::strcmp(argv[i], "--repeats") == 0) {
      repeats = std::atoi(argv[++i]);
    }
    // A flag added to `known` without a branch here leaves its value in
    // argv, which the next iteration rejects as an unknown flag — loud,
    // not silent.
  }
  if (log2n < 10 || log2n > 26 || repeats < 1 || threads.empty()) {
    std::cerr << "usage: bench_throughput [--smoke] [--log2n 10..26] "
              << "[--threads \"1,2,4\"] [--repeats R>=1]\n";
    return 2;
  }
  for (int t : threads) {
    if (t < 1) {
      std::cerr << "--threads entries must be >= 1\n";
      return 2;
    }
  }
  std::cout << "EXP-PERF: ingestion/build/sampling throughput "
            << "(hardware threads: " << std::thread::hardware_concurrency()
            << ")\n\n";
  if (!BatchedEqualsScalarGate()) {
    std::cerr << "bench_throughput: batched-vs-scalar gate failed\n";
    return 1;
  }
  StreamUpdateSweep(repeats, smoke);
  BatchSizeSweep(repeats, smoke);
  ShippedPlanSweep(repeats, smoke);
  ThreadSweep(size_t{1} << log2n, threads, repeats);
  FinishAndSample(repeats);
  PmmContrast(repeats);
  return 0;
}

}  // namespace
}  // namespace privhp

int main(int argc, char** argv) { return privhp::Run(argc, argv); }
