// Cold-start and serving cost of the three artifact representations:
// heap (v2 tree file parsed; sampler compiled on the first sample),
// paged/mmap (packed file mapped and walked in place), paged/pool (same
// file behind a bounded buffer pool). The tree is packed twice, at the
// 4 KiB default page and at 64 KiB (the default before 4 KiB), and both
// paged representations run at each size.
//
//   bench_paged [--smoke] [--n N] [--m M] [--repeats R] [--pool-kib K]
//
// Reports, per representation: open (cold-start) time, the first
// SAMPLE's latency on a freshly opened artifact (4096 draws; on the heap
// path it includes the alias-table compile), resident bytes after open,
// and sample throughput for m draws (m/100 on the pool, where each draw
// can miss). Pool rows add the p50 latency and buffer-pool misses per
// op of seeded RANGE and QUANTILE reads, one at a time. The correctness
// gates always run (sized for --smoke), at both page sizes: RANGE /
// QUANTILE / HEAVY / EXPORT and a seeded sample must be bit-identical
// across all representations, and the pool must actually evict while
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

// p50 latency and pool misses per op of seeded one-at-a-time reads.
struct PooledReads {
  double range_p50_us = 0.0;
  double range_misses = 0.0;
  double quantile_p50_us = 0.0;
  double quantile_misses = 0.0;
};

constexpr size_t kPooledReadOps = 2000;

PooledReads MeasurePooledReads(const ServedArtifact& artifact,
                               int max_level) {
  const storage::BufferPool& pool = *artifact.buffer_pool();
  PooledReads out;
  RandomEngine rng(77);
  for (const bool range : {true, false}) {
    std::vector<double> us;
    us.reserve(kPooledReadOps);
    const uint64_t misses_before = pool.stats().misses;
    for (size_t i = 0; i < kPooledReadOps; ++i) {
      const int level = 1 + static_cast<int>(rng.UniformInt(max_level));
      const CellId cell{level, rng.UniformInt(uint64_t{1} << level)};
      const double q = rng.UniformDouble();
      bench::Stopwatch watch;
      const bool ok = range ? artifact.RangeMass(cell).ok()
                            : artifact.Quantiles({q}).ok();
      us.push_back(watch.Seconds() * 1e6);
      if (!ok) std::abort();
    }
    std::sort(us.begin(), us.end());
    const double misses =
        static_cast<double>(pool.stats().misses - misses_before) /
        kPooledReadOps;
    (range ? out.range_p50_us : out.quantile_p50_us) = us[us.size() / 2];
    (range ? out.range_misses : out.quantile_misses) = misses;
  }
  return out;
}

// Every representation must answer exactly as the reference does.
bool AnswersMatch(const ServedArtifact& ref, const ServedArtifact& other) {
  const std::vector<double> qs = {0.01, 0.25, 0.5, 0.75, 0.99};
  auto blob0 = ref.ExportBlob();
  auto q0 = ref.Quantiles(qs);
  auto h0 = ref.Heavy(0.02);
  auto r0 = ref.RangeMass({4, 3});
  auto blob = other.ExportBlob();
  auto q = other.Quantiles(qs);
  auto h = other.Heavy(0.02);
  auto r = other.RangeMass({4, 3});
  bool ok = blob0.ok() && q0.ok() && h0.ok() && r0.ok() && blob.ok() &&
            q.ok() && h.ok() && r.ok() && *blob == *blob0 && *q == *q0 &&
            h->size() == h0->size() && *r == *r0;
  for (size_t j = 0; ok && j < h->size(); ++j) {
    ok = (*h)[j].cell == (*h0)[j].cell &&
         (*h)[j].fraction == (*h0)[j].fraction;
  }
  RandomEngine rng0(4242);
  RandomEngine rng(4242);
  CollectingSink sink0;
  CollectingSink sink;
  return ok && ref.GenerateTo(20000, &rng0, &sink0).ok() &&
         other.GenerateTo(20000, &rng, &sink).ok() &&
         sink.points() == sink0.points();
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
  if (!SaveTreeToFile(generator->tree(), tree_path).ok()) return 1;
  auto tree_size = storage::FileSize(tree_path);
  if (!tree_size.ok()) return 1;
  std::printf(
      "bench_paged: n=%zu nodes=%zu, tree file %s, m=%zu draws, "
      "pool=%zu KiB\n",
      config.n, generator->tree().num_nodes(),
      bench::FormatBytes(*tree_size).c_str(), config.m, config.pool_kib);

  storage::PagedReadOptions pooled_options;
  pooled_options.use_buffer_pool = true;
  pooled_options.pool_bytes = config.pool_kib << 10;

  struct Rep {
    uint32_t page_size;  // 0 for the heap representation
    const char* name;
    std::function<Result<std::shared_ptr<const ServedArtifact>>()> open;
  };
  std::vector<Rep> reps = {
      {0, "heap", [&] { return ServedArtifact::FromFile(tree_path); }}};
  const uint32_t page_sizes[] = {storage::kDefaultPageSize, 64u << 10};
  std::vector<std::string> packed_paths;
  std::vector<uint64_t> packed_sizes;
  for (const uint32_t page_size : page_sizes) {
    const std::string path = TempPath(
        ("bench_paged_" + std::to_string(page_size) + ".phx").c_str());
    storage::PackOptions pack;
    pack.page_size = page_size;
    bench::Stopwatch pack_watch;
    if (!storage::PackArtifact(generator->tree(), path, pack).ok()) return 1;
    const double pack_ms = pack_watch.Seconds() * 1e3;
    auto size = storage::FileSize(path);
    if (!size.ok()) return 1;
    std::printf("  %u-byte pages: packed file %s (packed in %.2f ms)\n",
                page_size, bench::FormatBytes(*size).c_str(), pack_ms);
    packed_paths.push_back(path);
    packed_sizes.push_back(*size);
    reps.push_back(
        {page_size, "mmap", [path] { return ServedArtifact::FromFile(path); }});
    reps.push_back({page_size, "pool", [path, pooled_options] {
                      return ServedArtifact::FromPagedFile(path,
                                                           pooled_options);
                    }});
  }

  std::printf("%6s %6s %10s %10s %11s %8s %8s %10s %9s %10s %9s\n", "page",
              "repr", "open_ms", "first_ms", "resident", "Mpts/s", "ns/pt",
              "range_us", "range_mo", "quant_us", "quant_mo");
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
    const bool pooled = (*artifact)->buffer_pool() != nullptr;
    const size_t m = pooled ? std::max<size_t>(1, config.m / 100) : config.m;
    const double sample_s = MedianSeconds(config.repeats, [&] {
      CountingSink sink;
      RandomEngine rng(2002);
      if (!(*artifact)->GenerateTo(m, &rng, &sink).ok()) std::abort();
    });
    std::printf("%6s %6s %10.3f %10.3f %11s %8.2f %8.0f",
                rep.page_size == 0 ? "-"
                                   : std::to_string(rep.page_size).c_str(),
                rep.name, open_s * 1e3, first_s * 1e3,
                bench::FormatBytes((*artifact)->ResidentBytes()).c_str(),
                m / sample_s / 1e6, sample_s * 1e9 / m);
    if (pooled) {
      const PooledReads reads =
          MeasurePooledReads(**artifact, generator->tree().MaxDepth());
      std::printf(" %10.1f %9.2f %10.1f %9.2f\n", reads.range_p50_us,
                  reads.range_misses, reads.quantile_p50_us,
                  reads.quantile_misses);
    } else {
      std::printf(" %10s %9s %10s %9s\n", "-", "-", "-", "-");
    }
    opened.push_back(std::move(*artifact));
  }
  std::printf("(range_mo / quant_mo: buffer-pool misses per op, over %zu "
              "one-at-a-time reads each)\n",
              kPooledReadOps);

  // Correctness gates, at every page size: every representation answers
  // as the heap does, and each pool is bounded and actually churning.
  bool ok = true;
  for (size_t i = 1; i < opened.size(); ++i) {
    const bool same = AnswersMatch(*opened[0], *opened[i]);
    ok = ok && same;
    const storage::BufferPool* pool = opened[i]->buffer_pool();
    if (pool == nullptr) {
      std::printf("checks: %u %s bit-identity %s\n", reps[i].page_size,
                  reps[i].name, same ? "OK" : "FAILED");
      continue;
    }
    const uint64_t packed = packed_sizes[(i - 1) / 2];
    const storage::BufferPool::Stats stats = pool->stats();
    const bool bounded = opened[i]->ResidentBytes() < packed &&
                         stats.misses > 0 && stats.evictions > 0;
    ok = ok && bounded;
    std::printf("checks: %u %s bit-identity %s, resident %s < packed %s %s, "
                "pool hits=%llu misses=%llu evictions=%llu\n",
                reps[i].page_size, reps[i].name, same ? "OK" : "FAILED",
                bench::FormatBytes(opened[i]->ResidentBytes()).c_str(),
                bench::FormatBytes(packed).c_str(),
                bounded ? "OK" : "FAILED",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.evictions));
  }

  std::remove(tree_path.c_str());
  for (const std::string& path : packed_paths) std::remove(path.c_str());
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
