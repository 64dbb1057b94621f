#include "probes.h"

#include <algorithm>
#include <sstream>
#include <thread>
#include <utility>

#include "core/builder.h"
#include "core/shard.h"
#include "domain/hypercube_domain.h"
#include "hierarchy/compiled_sampler.h"
#include "hierarchy/tree_serialization.h"
#include "io/socket_point_stream.h"
#include "obs/histogram.h"
#include "service/artifact_registry.h"
#include "service/protocol.h"
#include "storage/artifact_packer.h"
#include "storage/file_io.h"

namespace perfbench {

using privhp::CellId;
using privhp::PointBatch;
using privhp::PrivHPBuilder;
using privhp::PrivHPGenerator;
using privhp::PrivHPShard;
using privhp::ServedArtifact;

namespace {

constexpr size_t kProbeBatch = 512;
// The chunk PrivHPShard::AddBatch locates and updates at a time.
constexpr size_t kShardChunk = 256;
constexpr size_t kMaxProbePoints = size_t{1} << 18;
constexpr int kPasses = 3;
constexpr int kLayerPasses = 5;

// Median over \p passes calls of the seconds \p f takes.
template <typename F>
double MedianSeconds(int passes, F&& f) {
  std::vector<double> seconds;
  for (int p = 0; p < passes; ++p) {
    const Clock::time_point start = Clock::now();
    f();
    seconds.push_back(SecondsSince(start));
  }
  return Median(seconds);
}

// The probe batches: consecutive 512-point slices of the stream's prefix.
std::vector<PointBatch> ProbeBatches(const PointBatch& stream) {
  std::vector<PointBatch> batches;
  const size_t n = std::min(stream.size(), kMaxProbePoints);
  for (size_t base = 0; base < n; base += kProbeBatch) {
    PointBatch b(stream.dim());
    b.AppendFlat(stream.row(base), std::min(kProbeBatch, n - base));
    batches.push_back(std::move(b));
  }
  return batches;
}

// RANGE cells the probes and workloads query: levels 1..16, spread over
// the unit interval by a fixed stride.
std::vector<CellId> ProbeCells() {
  std::vector<CellId> cells;
  for (int level = 1; level <= 16; ++level) {
    const uint64_t width = uint64_t{1} << level;
    for (uint64_t j = 0; j < 8; ++j) {
      cells.push_back(CellId{level, (j * 0x9e3779b97f4a7c15ULL >> 7) % width});
    }
  }
  return cells;
}

// Appends every point it receives to one columnar arena.
struct ArenaSink : privhp::PointSink {
  using privhp::PointSink::Add;
  privhp::Status Add(const privhp::Point& x) override {
    batch.AppendPoint(x);
    return privhp::Status::OK();
  }
  using privhp::PointSink::AddAll;
  privhp::Status AddAll(const PointBatch& b) override {
    batch.AppendFlat(b.data(), b.size());
    return privhp::Status::OK();
  }
  uint64_t num_processed() const override { return batch.size(); }

  PointBatch batch{1};
};

const std::vector<double> kProbeQuantiles = {0.05, 0.25, 0.5, 0.75, 0.95};

}  // namespace

std::string TreeBlob(const PrivHPGenerator& generator) {
  std::ostringstream os;
  if (!privhp::SaveTree(generator.tree(), &os).ok()) return {};
  return os.str();
}

void ProbePublishLayers(const PointBatch& stream, int threads,
                        double single_thread_s, const std::string& path,
                        Report* report) {
  privhp::HypercubeDomain domain(1);
  const privhp::PrivHPOptions options = ShippedPlan(stream.size());

  // The streaming build, clocked from the source side.
  StagedSource source(&stream);
  auto parallel =
      PrivHPBuilder::BuildParallel(&domain, options, &source, threads);
  const Clock::time_point returned = Clock::now();
  report->Check(parallel.ok(), "probe BuildParallel");
  if (!parallel.ok()) return;
  const double parallel_s = SecondsBetween(source.first_call(), returned);
  // End-of-stream to return: the workers draining the queued batches,
  // then the merge and finish that the shard-by-shard build below times
  // on their own.
  report->Set("core.drain_tail_ms",
              SecondsBetween(source.end_of_stream(), returned) * 1e3);
  report->Set("core.reader_wait_s", source.wait_seconds());
  report->Set("core.reader_batches", static_cast<double>(source.batches()));

  if (single_thread_s <= 0) {
    StagedSource one(&stream);
    const Clock::time_point start = Clock::now();
    auto g = PrivHPBuilder::BuildParallel(&domain, options, &one, 1);
    single_thread_s = SecondsSince(start);
    report->Check(g.ok() && TreeBlob(*g) == TreeBlob(*parallel),
                  "probe one-thread build equals the parallel build");
  }
  report->Set("core.single_thread_s", single_thread_s);
  report->Set("core.parallel_speedup", single_thread_s / parallel_s);

  // The same build taken apart: shards fed round-robin by our own
  // threads, then the merge and finish phases timed on their own.
  {
    auto builder = PrivHPBuilder::Make(&domain, options);
    report->Check(builder.ok(), "probe builder");
    if (!builder.ok()) return;
    std::vector<PrivHPShard> shards;
    for (int t = 0; t < threads; ++t) {
      auto shard = builder->NewShard();
      report->Check(shard.ok(), "probe NewShard");
      if (!shard.ok()) return;
      shards.push_back(std::move(*shard));
    }
    std::vector<privhp::Status> added(threads);
    std::vector<std::thread> workers;
    const size_t batches = (stream.size() + kProbeBatch - 1) / kProbeBatch;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t]() {
        PointBatch b(stream.dim());
        for (size_t i = t; i < batches && added[t].ok(); i += threads) {
          const size_t base = i * kProbeBatch;
          b.Clear();
          b.AppendFlat(stream.row(base),
                       std::min(kProbeBatch, stream.size() - base));
          added[t] = shards[t].AddBatch(b);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (const privhp::Status& s : added) report->Check(s.ok(), "probe shard");
    report->Set("core.shard_state_bytes",
                static_cast<double>(shards[0].MemoryBytes()));
    double sketch_bytes = 0;
    for (const auto& s : shards[0].sketches()) sketch_bytes += s.MemoryBytes();
    report->Set("sketch.state_bytes", sketch_bytes);

    Clock::time_point start = Clock::now();
    for (PrivHPShard& shard : shards) {
      report->Check(builder->AbsorbShard(std::move(shard)).ok(),
                    "probe AbsorbShard");
    }
    const double merge_s = SecondsSince(start);
    start = Clock::now();
    auto finished = std::move(*builder).Finish();
    const double finish_s = SecondsSince(start);
    report->Check(finished.ok() && TreeBlob(*finished) == TreeBlob(*parallel),
                  "probe shard-by-shard build equals BuildParallel");
    report->Set("core.merge_ms", merge_s * 1e3);
    report->Set("core.finish_ms", finish_s * 1e3);
  }

  const privhp::PartitionTree& tree = parallel->tree();
  report->Set("hierarchy.tree_nodes", static_cast<double>(tree.num_nodes()));
  size_t slots = 0;
  report->Set("hierarchy.compile_ms", 1e3 * MedianSeconds(5, [&]() {
    privhp::CompiledSampler sampler(tree);
    slots = sampler.num_cells();
  }));
  report->Set("hierarchy.alias_slots", static_cast<double>(slots));
  bool packed = true;
  report->Set("storage.pack_ms", 1e3 * MedianSeconds(kPasses, [&]() {
    packed = packed && privhp::storage::PackArtifact(tree, path).ok();
  }));
  report->Check(packed, "probe PackArtifact");
  auto file_bytes = privhp::storage::FileSize(path);
  report->Set("storage.file_bytes",
              file_bytes.ok() ? static_cast<double>(*file_bytes) : 0.0);
  bool opened = true;
  report->Set("storage.open_ms", 1e3 * MedianSeconds(5, [&]() {
    opened = opened && ServedArtifact::FromFile(path).ok();
  }));
  report->Check(opened, "probe FromFile");

  // Ingest layers on identical 512-point batches. AddBatch locates and
  // updates each batch in 256-point chunks, so the locate and sketch
  // probes call their layers on the same chunks; with whole 512-point
  // calls the level-major key rows sit 4 KiB apart and LocatePathBatch
  // runs several times slower per point than inside the shard, which
  // would break the decomposition below. The layers' passes are
  // interleaved so a burst of noise elsewhere on the machine lands on
  // all of them alike; each layer reports its median pass.
  const std::vector<PointBatch> batches = ProbeBatches(stream);
  const double points = static_cast<double>(
      std::min(stream.size(), kMaxProbePoints));
  const privhp::ResolvedPlan& plan = parallel->plan();
  const size_t levels = static_cast<size_t>(plan.l_max) + 1;
  std::vector<uint64_t> keys(kShardChunk * levels);
  std::vector<privhp::CountMinSketch> sketches;
  for (int l = plan.l_star + 1; l <= plan.l_max; ++l) {
    sketches.emplace_back(plan.sketch_width, plan.sketch_depth,
                          privhp::SketchHashSeed(plan.seed, l));
  }
  auto probe_builder = PrivHPBuilder::Make(&domain, options);
  report->Check(probe_builder.ok(), "probe builder");
  if (!probe_builder.ok()) return;
  auto probe_shard = probe_builder->NewShard();
  report->Check(probe_shard.ok(), "probe shard");
  if (!probe_shard.ok()) return;
  auto for_each_chunk = [&](const PointBatch& b, auto&& f) {
    for (size_t base = 0; base < b.size(); base += kShardChunk) {
      f(b.row(base), std::min(kShardChunk, b.size() - base));
    }
  };
  auto timed = [&](std::vector<double>* passes, auto&& f) {
    const Clock::time_point start = Clock::now();
    f();
    passes->push_back(SecondsSince(start));
  };
  std::vector<double> validate_passes, locate_passes, update_passes,
      shard_passes;
  bool valid = true;
  bool shard_ok = true;
  for (int p = 0; p < kLayerPasses; ++p) {
    timed(&validate_passes, [&]() {
      for (const PointBatch& b : batches) {
        valid = valid && domain.ValidateBatch(b).ok();
      }
    });
    timed(&locate_passes, [&]() {
      for (const PointBatch& b : batches) {
        for_each_chunk(b, [&](const double* flat, size_t n) {
          domain.LocatePathBatch(flat, b.dim(), n, plan.l_max, keys.data());
        });
      }
    });
    // Sketch updates are clocked alone: each chunk is located first
    // (untimed, so its keys are as cache-hot as inside AddBatch), then
    // only its row updates are timed.
    {
      double seconds = 0.0;
      for (const PointBatch& b : batches) {
        for_each_chunk(b, [&](const double* flat, size_t n) {
          domain.LocatePathBatch(flat, b.dim(), n, plan.l_max, keys.data());
          const Clock::time_point start = Clock::now();
          for (int l = plan.l_star + 1; l <= plan.l_max; ++l) {
            sketches[l - plan.l_star - 1].UpdateBatch(
                keys.data() + static_cast<size_t>(l) * n, n, 1.0);
          }
          seconds += SecondsSince(start);
        });
      }
      update_passes.push_back(seconds);
    }
    timed(&shard_passes, [&]() {
      for (const PointBatch& b : batches) {
        shard_ok = shard_ok && probe_shard->AddBatch(b).ok();
      }
    });
  }
  report->Check(valid, "probe ValidateBatch");
  const double validate_s = Median(validate_passes);
  const double locate_s = Median(locate_passes);
  const double update_s = Median(update_passes);
  const double shard_s = Median(shard_passes);
  report->Check(shard_ok, "probe AddBatch");
  const double ns = 1e9 / points;
  report->Set("domain.validate_ns_per_pt", validate_s * ns);
  report->Set("domain.locate_ns_per_pt", locate_s * ns);
  report->Set("sketch.update_ns_per_pt", update_s * ns);
  report->Set("core.shard_add_ns_per_pt", shard_s * ns);
  report->Set("core.counter_ns_per_pt",
              (shard_s - validate_s - locate_s - update_s) * ns);
}

void ProbeServeLayers(const std::string& live_path,
                      const std::string& fixed_path, size_t pool_bytes,
                      Report* report) {
  auto live = ServedArtifact::FromFile(live_path);
  privhp::storage::PagedReadOptions pooled;
  pooled.use_buffer_pool = true;
  pooled.pool_bytes = pool_bytes;
  auto fixed = ServedArtifact::FromPagedFile(fixed_path, pooled);
  report->Check(live.ok() && fixed.ok(), "probe artifact open");
  if (!live.ok() || !fixed.ok()) return;

  constexpr size_t kSamplePoints = size_t{1} << 20;
  bool sampled = true;
  const double sample_s = MedianSeconds(kPasses, [&]() {
    privhp::RandomEngine rng(7);
    HashSink sink;
    sampled = sampled && (*live)->GenerateTo(kSamplePoints, &rng, &sink).ok() &&
              sink.num_processed() == kSamplePoints;
  });
  report->Check(sampled, "probe GenerateTo");
  report->Set("hierarchy.sample_ns_per_pt", sample_s * 1e9 / kSamplePoints);

  // Point frames of 4096 points, the server's SAMPLE frame size.
  constexpr size_t kFramePoints = 4096;
  constexpr int kFrames = 256;
  ArenaSink frame;
  {
    privhp::RandomEngine rng(11);
    report->Check((*live)->GenerateTo(kFramePoints, &rng, &frame).ok(),
                  "probe frame sample");
  }
  std::string payload;
  const double encode_s = MedianSeconds(kPasses, [&]() {
    for (int i = 0; i < kFrames; ++i) {
      payload = privhp::EncodePointBatch(frame.batch);
    }
  });
  bool decoded = true;
  const double decode_s = MedianSeconds(kPasses, [&]() {
    PointBatch out;
    for (int i = 0; i < kFrames; ++i) {
      out.Reset(1);
      decoded = decoded && privhp::DecodePointBatch(payload, 1, &out).ok();
    }
    decoded = decoded && out == frame.batch;
  });
  report->Check(decoded, "probe DecodePointBatch round trip");
  report->Set("io.encode_ns_per_pt", encode_s * 1e9 / (kFrames * kFramePoints));
  report->Set("io.decode_ns_per_pt", decode_s * 1e9 / (kFrames * kFramePoints));

  const std::vector<CellId> cells = ProbeCells();
  constexpr int kRounds = 64;
  auto range_ns = [&](const ServedArtifact& artifact, const char* name) {
    bool ok = true;
    const double s = MedianSeconds(kPasses, [&]() {
      for (int r = 0; r < kRounds; ++r) {
        for (const CellId& c : cells) ok = ok && artifact.RangeMass(c).ok();
      }
    });
    report->Check(ok, std::string("probe ") + name);
    return s * 1e9 / (kRounds * cells.size());
  };
  report->Set("core.range_ns", range_ns(**live, "core.range"));
  report->Set("storage.pool_range_ns", range_ns(**fixed, "storage.pool_range"));
  bool quantiles_ok = true;
  const double quantile_s = MedianSeconds(kPasses, [&]() {
    for (int r = 0; r < kRounds * 16; ++r) {
      quantiles_ok = quantiles_ok && (*live)->Quantiles(kProbeQuantiles).ok();
    }
  });
  report->Check(quantiles_ok, "probe Quantiles");
  report->Set("core.quantile_ns", quantile_s * 1e9 / (kRounds * 16));

  std::vector<std::string> frames;
  for (const CellId& c : cells) {
    frames.push_back(privhp::EncodeRangeRequest(
        "live", static_cast<uint32_t>(c.level), c.index));
    frames.push_back(privhp::EncodeQuantileRequest("live", kProbeQuantiles));
  }
  bool parsed = true;
  const double parse_s = MedianSeconds(kPasses, [&]() {
    for (int r = 0; r < kRounds; ++r) {
      for (const std::string& f : frames) {
        parsed = parsed && privhp::ParseRequest(f).ok();
      }
    }
  });
  report->Check(parsed, "probe ParseRequest");
  report->Set("service.parse_ns", parse_s * 1e9 / (kRounds * frames.size()));
}

void ProbeSessionBuild(const PointBatch& session, Report* report) {
  privhp::HypercubeDomain domain(1);
  const privhp::PrivHPOptions options = ShippedPlan(session.size());
  bool built = true;
  report->Set("core.session_build_ms", 1e3 * MedianSeconds(kPasses, [&]() {
    StagedSource source(&session);
    built = built &&
            PrivHPBuilder::BuildParallel(&domain, options, &source, 1).ok();
  }));
  report->Check(built, "probe session build");
}

std::vector<double> ProbeServiceOps(privhp::PrivHPClient* client,
                                    const std::vector<std::string>& artifacts,
                                    Report* report) {
  std::vector<double> range_us;
  const std::vector<CellId> cells = ProbeCells();
  for (const std::string& name : artifacts) {
    for (const CellId& c : cells) {
      const Clock::time_point start = Clock::now();
      report->Check(client->RangeMass(name, c).ok(), "probe RANGE");
      range_us.push_back(SecondsSince(start) * 1e6);
    }
    for (int i = 0; i < 32; ++i) {
      report->Check(client->Quantiles(name, kProbeQuantiles).ok(),
                    "probe QUANTILE");
    }
  }
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    HashSink sink;
    report->Check(client->Sample(artifacts.front(), 4096, seed, &sink).ok(),
                  "probe SAMPLE");
  }
  const PointBatch stream = ZipfStream(size_t{1} << 14, 99);
  StagedSource source(&stream);
  privhp::PrivHPClient::IngestSpec spec;
  spec.n = stream.size();
  report->Check(client->Ingest("probe", spec, &source).ok(), "probe INGEST");
  return range_us;
}

void ReadServerStats(privhp::PrivHPClient* client, double client_p50_us,
                     const std::vector<std::string>& ops, Report* report) {
  auto stats = client->Stats();
  report->Check(stats.ok(), "STATS");
  if (!stats.ok()) return;
  auto hist = [&](const std::string& name) {
    const privhp::obs::HistogramSnapshot* h = stats->FindHistogram(name);
    return h ? *h : privhp::obs::HistogramSnapshot{};
  };
  auto set_us = [&](const std::string& metric, const std::string& name) {
    const privhp::obs::HistogramSnapshot h = hist(name);
    report->Set(metric + "_p50_us", h.ValueAtQuantile(0.50) / 1e3);
    report->Set(metric + "_p99_us", h.ValueAtQuantile(0.99) / 1e3);
  };
  set_us("service.sample_latency", "op.sample.latency_ns");
  set_us("service.range_latency", "op.range.latency_ns");
  set_us("service.quantile_latency", "op.quantile.latency_ns");
  set_us("service.queue_wait", "server.queue_wait_ns");
  report->Set("service.ingest_latency_ms_p50",
              hist("op.ingest.latency_ns").ValueAtQuantile(0.5) / 1e6);
  report->Set("service.publishes",
              static_cast<double>(stats->CounterOr("registry.publishes")));
  uint64_t errors = 0;
  for (const auto& c : stats->counters) {
    const std::string& n = c.name;
    if (n.rfind("op.", 0) == 0 && n.size() > 7 &&
        n.compare(n.size() - 7, 7, ".errors") == 0) {
      errors += c.value;
    }
  }
  report->Set("service.errors", static_cast<double>(errors));
  const double hits = static_cast<double>(stats->CounterOr("pool.hits"));
  const double misses = static_cast<double>(stats->CounterOr("pool.misses"));
  report->Set("storage.pool_hits", hits);
  report->Set("storage.pool_misses", misses);
  report->Set("storage.pool_evictions",
              static_cast<double>(stats->CounterOr("pool.evictions")));
  report->Set("storage.pool_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0);
  privhp::obs::HistogramSnapshot merged;
  for (const std::string& op : ops) merged.Merge(hist(op));
  report->Set("service.client_gap_us",
              client_p50_us - merged.ValueAtQuantile(0.5) / 1e3);
}

}  // namespace perfbench
