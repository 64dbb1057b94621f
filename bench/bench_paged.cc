// Cold-start and serving cost of the three artifact representations:
// heap (v2 tree file parsed; sampler compiled on the first sample),
// paged/mmap (packed
// file mapped and walked in place), paged/pool (same file behind a
// bounded buffer pool).
//
//   bench_paged [--smoke] [--n N] [--m M] [--repeats R] [--pool-kib K]
//
// Reports, per representation: open (cold-start) time, the first
// SAMPLE's latency on a freshly opened artifact (4096 draws; on the heap
// path it includes the alias-table compile), resident bytes after open,
// and sample throughput for m draws. The correctness gates
// always run (sized for --smoke): RANGE / QUANTILE / HEAVY / EXPORT and
// a seeded sample must be bit-identical across all three
// representations, and the pooled pool must actually evict while
// staying bounded — a perf win that broke identity or the memory bound
// would fail here, not in production.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "core/builder.h"
#include "core/queries.h"
#include "domain/interval_domain.h"
#include "hierarchy/tree_serialization.h"
#include "io/point_sink.h"
#include "service/artifact_registry.h"
#include "storage/artifact_packer.h"
#include "storage/file_io.h"

namespace privhp {
namespace {

using bench::CountingSink;

struct Config {
  bool smoke = false;
  size_t n = size_t{1} << 16;
  size_t m = 2'000'000;
  int repeats = 3;
  size_t pool_kib = 64;
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

std::string TempPath(const char* leaf) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr && *dir != '\0' ? dir : "/tmp") + "/" +
         leaf + "." + std::to_string(::getpid());
}

int RunBench(const Config& config) {
  IntervalDomain domain;
  PrivHPOptions options;
  options.expected_n = config.n;
  options.k = 32;
  options.seed = 42;
  auto builder = PrivHPBuilder::Make(&domain, options);
  if (!builder.ok()) {
    std::fprintf(stderr, "%s\n", builder.status().ToString().c_str());
    return 1;
  }
  RandomEngine data_rng(7);
  for (size_t i = 0; i < config.n; ++i) {
    const Point p{data_rng.UniformDouble() * data_rng.UniformDouble()};
    if (!builder->Add(p).ok()) return 1;
  }
  auto generator = std::move(*builder).Finish();
  if (!generator.ok()) {
    std::fprintf(stderr, "%s\n", generator.status().ToString().c_str());
    return 1;
  }

  const std::string tree_path = TempPath("bench_paged.tree");
  const std::string packed_path = TempPath("bench_paged.phx");
  if (!SaveTreeToFile(generator->tree(), tree_path).ok()) return 1;
  bench::Stopwatch pack_watch;
  if (!storage::PackArtifact(generator->tree(), packed_path).ok()) return 1;
  const double pack_ms = pack_watch.Seconds() * 1e3;

  auto tree_size = storage::FileSize(tree_path);
  auto packed_size = storage::FileSize(packed_path);
  if (!tree_size.ok() || !packed_size.ok()) return 1;
  std::printf(
      "bench_paged: n=%zu nodes=%zu, tree file %s, packed file %s "
      "(packed in %.2f ms), m=%zu draws, pool=%zu KiB\n",
      config.n, generator->tree().num_nodes(),
      bench::FormatBytes(*tree_size).c_str(),
      bench::FormatBytes(*packed_size).c_str(), pack_ms, config.m,
      config.pool_kib);

  storage::PagedReadOptions pooled_options;
  pooled_options.use_buffer_pool = true;
  pooled_options.pool_bytes = config.pool_kib << 10;

  struct Rep {
    const char* name;
    std::function<Result<std::shared_ptr<const ServedArtifact>>()> open;
  };
  const Rep reps[] = {
      {"heap", [&] { return ServedArtifact::FromFile(tree_path); }},
      {"mmap", [&] { return ServedArtifact::FromFile(packed_path); }},
      {"pool", [&] {
         return ServedArtifact::FromPagedFile(packed_path, pooled_options);
       }}};

  std::printf("%6s %12s %12s %12s %10s %10s\n", "repr", "open_ms",
              "first_ms", "resident", "Mpts/s", "ns/pt");
  std::vector<std::shared_ptr<const ServedArtifact>> opened;
  for (const Rep& rep : reps) {
    const double open_s = MedianSeconds(config.repeats, [&] {
      auto artifact = rep.open();
      if (!artifact.ok()) std::abort();
    });
    std::vector<double> firsts;
    for (int r = 0; r < config.repeats; ++r) {
      auto fresh = rep.open();
      if (!fresh.ok()) std::abort();
      CountingSink sink;
      RandomEngine rng(2001);
      bench::Stopwatch watch;
      if (!(*fresh)->GenerateTo(4096, &rng, &sink).ok()) std::abort();
      firsts.push_back(watch.Seconds());
    }
    std::sort(firsts.begin(), firsts.end());
    const double first_s = firsts[firsts.size() / 2];
    auto artifact = rep.open();
    if (!artifact.ok()) {
      std::fprintf(stderr, "%s\n", artifact.status().ToString().c_str());
      return 1;
    }
    const double sample_s = MedianSeconds(config.repeats, [&] {
      CountingSink sink;
      RandomEngine rng(2002);
      if (!(*artifact)->GenerateTo(config.m, &rng, &sink).ok()) {
        std::abort();
      }
    });
    std::printf("%6s %12.3f %12.3f %12s %10.2f %10.0f\n", rep.name,
                open_s * 1e3, first_s * 1e3,
                bench::FormatBytes((*artifact)->ResidentBytes()).c_str(),
                config.m / sample_s / 1e6, sample_s * 1e9 / config.m);
    opened.push_back(std::move(*artifact));
  }

  // Correctness gates: every representation answers identically.
  bool ok = true;
  const std::vector<double> qs = {0.01, 0.25, 0.5, 0.75, 0.99};
  auto blob0 = opened[0]->ExportBlob();
  auto q0 = opened[0]->Quantiles(qs);
  auto h0 = opened[0]->Heavy(0.02);
  auto r0 = opened[0]->RangeMass({4, 3});
  ok = ok && blob0.ok() && q0.ok() && h0.ok() && r0.ok();
  RandomEngine rng0(4242);
  CollectingSink sink0;
  ok = ok && opened[0]->GenerateTo(20000, &rng0, &sink0).ok();
  for (size_t i = 1; ok && i < opened.size(); ++i) {
    auto blob = opened[i]->ExportBlob();
    auto q = opened[i]->Quantiles(qs);
    auto h = opened[i]->Heavy(0.02);
    auto r = opened[i]->RangeMass({4, 3});
    ok = blob.ok() && q.ok() && h.ok() && r.ok() && *blob == *blob0 &&
         *q == *q0 && h->size() == h0->size() && *r == *r0;
    for (size_t j = 0; ok && j < h->size(); ++j) {
      ok = (*h)[j].cell == (*h0)[j].cell &&
           (*h)[j].fraction == (*h0)[j].fraction;
    }
    RandomEngine rng(4242);
    CollectingSink sink;
    ok = ok && opened[i]->GenerateTo(20000, &rng, &sink).ok() &&
         sink.points() == sink0.points();
  }
  // The pooled representation must be bounded and actually churning.
  const storage::PagedArtifact* pooled = opened[2]->paged();
  ok = ok && pooled != nullptr && pooled->pooled() &&
       opened[2]->ResidentBytes() < static_cast<size_t>(*packed_size) &&
       pooled->pool()->stats().misses > 0;
  std::printf("checks: heap/mmap/pool bit-identity %s, pooled resident "
              "%s < packed %s, pool hits=%llu misses=%llu evictions=%llu\n",
              ok ? "OK" : "FAILED",
              bench::FormatBytes(opened[2]->ResidentBytes()).c_str(),
              bench::FormatBytes(*packed_size).c_str(),
              static_cast<unsigned long long>(pooled->pool()->stats().hits),
              static_cast<unsigned long long>(
                  pooled->pool()->stats().misses),
              static_cast<unsigned long long>(
                  pooled->pool()->stats().evictions));

  std::remove(tree_path.c_str());
  std::remove(packed_path.c_str());
  if (!ok) {
    std::fprintf(stderr, "bench_paged: correctness gate failed\n");
    return 1;
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
    } else if (flag == "--repeats") {
      config.repeats = std::atoi(next());
    } else if (flag == "--pool-kib") {
      config.pool_kib = std::strtoull(next(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (config.smoke) {
    config.n = size_t{1} << 13;
    config.m = 200000;
    config.repeats = 1;
    config.pool_kib = 16;
  }
  if (config.repeats < 1) config.repeats = 1;
  if (config.n == 0 || config.m == 0 || config.pool_kib == 0) {
    std::fprintf(stderr, "bench_paged: invalid flag value\n");
    return 2;
  }
  return privhp::RunBench(config);
}
