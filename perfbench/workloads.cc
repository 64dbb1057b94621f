// The two workloads: build (the publisher's batch job) and mixed
// (interactive reads beside re-ingest).
// Each measures its end-to-end metrics for --seconds, checks every
// operation's output against an in-process reference, and in a traced
// run adds the per-layer probes (probes.h) and the server's STATS.

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <thread>
#include <utility>

#include "bench.h"
#include "core/builder.h"
#include "domain/hypercube_domain.h"
#include "probes.h"
#include "service/artifact_registry.h"
#include "service/client.h"
#include "service/server.h"
#include "storage/artifact_packer.h"
#include "storage/file_io.h"

namespace perfbench {

using privhp::ArtifactRegistry;
using privhp::CellId;
using privhp::PointBatch;
using privhp::PrivHPBuilder;
using privhp::PrivHPClient;
using privhp::PrivHPServer;
using privhp::ServedArtifact;

namespace {

int Nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

constexpr int kSetupRepeats = 41;

// Integral over an interval of length \p len of |g| for the linear g
// running from \p g0 to \p g1.
double AbsLinearIntegral(double g0, double g1, double len) {
  if ((g0 >= 0) == (g1 >= 0)) return 0.5 * std::abs(g0 + g1) * len;
  const double t = g0 / (g0 - g1);  // where g crosses zero
  return 0.5 * len * (std::abs(g0) * t + std::abs(g1) * (1.0 - t));
}

// Exact 1-D W1 = integral of |F_release - F_stream| between the release
// and the whole input stream. The release's CDF comes from its RANGE
// masses on a 2^-22 grid (RANGE apportions a leaf uniformly below it),
// so unlike a W1 against a finite sample of the release it carries no
// sampling noise.
double ReleaseW1(const ServedArtifact& artifact, const PointBatch& stream,
                 Report* report) {
  constexpr int kLevel = 22;
  constexpr uint64_t kCells = uint64_t{1} << kLevel;
  const double h = 1.0 / static_cast<double>(kCells);
  std::vector<double> xs(stream.data(), stream.data() + stream.size());
  std::sort(xs.begin(), xs.end());
  const double inv_n = 1.0 / static_cast<double>(xs.size());
  bool ok = true;
  size_t next = 0;
  double cdf = 0.0;  // F_release at the left edge of the current cell
  double total = 0.0;
  for (uint64_t j = 0; j < kCells; ++j) {
    auto mass = artifact.RangeMass(CellId{kLevel, j});
    ok = ok && mass.ok();
    const double m = mass.ok() ? *mass : 0.0;
    const double left = static_cast<double>(j) * h;
    const double right = left + h;
    auto release_cdf = [&](double x) { return cdf + m * (x - left) / h; };
    double x = left;
    for (; next < xs.size() && xs[next] < right; ++next) {
      const double fd = static_cast<double>(next) * inv_n;
      total += AbsLinearIntegral(release_cdf(x) - fd,
                                 release_cdf(xs[next]) - fd, xs[next] - x);
      x = xs[next];
    }
    const double fd = static_cast<double>(next) * inv_n;
    total += AbsLinearIntegral(release_cdf(x) - fd, release_cdf(right) - fd,
                               right - x);
    cdf += m;
  }
  report->Check(ok, "w1 RANGE masses");
  return total;
}

// The streaming build of \p stream, packed to \p path and opened: the
// publisher's path from first batch to a servable artifact.
struct Cycle {
  std::shared_ptr<const ServedArtifact> artifact;
  double total_s = 0;    // first NextBatch -> artifact open
  double release_s = 0;  // end-of-stream -> artifact open
};

Cycle PublishCycle(const PointBatch& stream, int threads,
                   const std::string& path, Report* report) {
  privhp::HypercubeDomain domain(1);
  StagedSource source(&stream);
  Cycle cycle;
  auto generator = PrivHPBuilder::BuildParallel(
      &domain, ShippedPlan(stream.size()), &source, threads);
  report->Check(generator.ok(), "BuildParallel");
  if (!generator.ok()) return cycle;
  report->Check(privhp::storage::PackArtifact(generator->tree(), path).ok(),
                "PackArtifact");
  auto artifact = ServedArtifact::FromFile(path);
  const Clock::time_point opened = Clock::now();
  report->Check(artifact.ok(), "FromFile");
  if (!artifact.ok()) return cycle;
  cycle.artifact = *artifact;
  cycle.total_s = SecondsBetween(source.first_call(), opened);
  cycle.release_s = SecondsBetween(source.end_of_stream(), opened);
  return cycle;
}

// A registry plus the server over it, with connected clients.
struct Service {
  std::unique_ptr<ArtifactRegistry> registry;
  std::unique_ptr<PrivHPServer> server;
  std::vector<PrivHPClient> clients;
};

// Loads \p files (name -> packed path) into a fresh registry, starts a
// server with \p workers workers on \p socket, connects \p connections
// clients and PINGs once. Returns false (after recording the failure) on
// any error.
bool StartService(const privhp::RegistryOptions& registry_options,
                  const std::vector<std::pair<std::string, std::string>>& files,
                  const std::string& socket, int workers, int connections,
                  Service* out, Report* report) {
  Service s;
  s.registry = std::make_unique<ArtifactRegistry>(registry_options);
  for (const auto& [name, path] : files) {
    const privhp::Status loaded = s.registry->LoadFile(name, path);
    report->Check(loaded.ok(), "LoadFile " + name + ": " + loaded.ToString());
    if (!loaded.ok()) return false;
  }
  privhp::ServerOptions options;
  options.unix_path = socket;
  options.num_workers = workers;
  auto server = PrivHPServer::Start(s.registry.get(), options);
  report->Check(server.ok(), "server start");
  if (!server.ok()) return false;
  s.server = std::move(*server);
  for (int c = 0; c < connections; ++c) {
    auto client = PrivHPClient::ConnectUnix(socket);
    report->Check(client.ok(), "connect");
    if (!client.ok()) return false;
    s.clients.push_back(std::move(*client));
  }
  report->Check(s.clients.front().Ping().ok(), "PING");
  *out = std::move(s);
  return true;
}

void StopService(Service* s) {
  s->clients.clear();
  if (s->server) s->server->Stop();
  s->server.reset();
  s->registry.reset();
}

// Starts the service kSetupRepeats times, keeping the last one running;
// returns the median set-up seconds.
double TimedSetup(const privhp::RegistryOptions& registry_options,
                  const std::vector<std::pair<std::string, std::string>>& files,
                  const std::string& socket, int workers, int connections,
                  Service* out, Report* report) {
  std::vector<double> seconds;
  for (int r = 0; r < kSetupRepeats; ++r) {
    StopService(out);
    const Clock::time_point start = Clock::now();
    if (!StartService(registry_options, files, socket, workers, connections,
                      out, report)) {
      return 0.0;
    }
    seconds.push_back(SecondsSince(start));
  }
  return Median(seconds);
}

// Records how many windows the statistics used and how much CPU the
// hypervisor stole in them.
void SetWindowInfo(const Windows& windows, Report* report) {
  report->Info("clean_windows", static_cast<double>(windows.clean_count()));
  report->Info("clean_steal_share", windows.clean_steal());
}

// The traced run's own end-to-end figures; their difference from an
// untraced run of the same seed is the tracing overhead.
void SetTraceOverhead(Report* report, double points_per_s, double p50_us) {
  report->Set("trace.points_per_s", points_per_s);
  report->Set("trace.latency_p50_us", p50_us);
}

// Cuts a serving run that started at \p start and lasts \p seconds into
// about-one-second windows; returns each window's peak RSS.
std::vector<double> CloseWindows(Clock::time_point start, double seconds,
                                 Windows* windows, PeakRss* rss) {
  const int count = std::max(1, static_cast<int>(seconds));
  std::vector<double> peaks;
  for (int k = 1; k <= count; ++k) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds * k / count)));
    windows->Close();
    peaks.push_back(rss->EndWindow());
  }
  return peaks;
}

// Buffer-pool capacity for a pooled artifact: a quarter of its file, so
// pooled reads both hit and miss.
size_t PoolBytes(const std::string& path) {
  auto size = privhp::storage::FileSize(path);
  return size.ok() ? static_cast<size_t>(*size / 4) : 0;
}

}  // namespace

// ------------------------------------------------------------------ build

bool RunBuild(const Args& args, Report* report) {
  const size_t n = size_t{1} << 23;
  const int threads = Nproc();
  report->Info("n", static_cast<double>(n));
  report->Info("threads", static_cast<double>(threads));
  const PointBatch stream = ZipfStream(n, args.seed);
  privhp::HypercubeDomain domain(1);
  const privhp::PrivHPOptions options = ShippedPlan(n);

  std::vector<double> setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Clock::time_point start = Clock::now();
    auto builder = PrivHPBuilder::Make(&domain, options);
    setup.push_back(SecondsSince(start));
    report->Check(builder.ok(), "PrivHPBuilder::Make");
  }
  report->Set("setup_s", Median(setup));

  // Correctness reference: a one-thread build of the same stream. Every
  // release must serialize byte-identically to it.
  std::string expected;
  double single_s = 0.0;
  {
    StagedSource one(&stream);
    const Clock::time_point start = Clock::now();
    auto reference = PrivHPBuilder::BuildParallel(&domain, options, &one, 1);
    single_s = SecondsSince(start);
    report->Check(reference.ok(), "one-thread reference build");
    if (reference.ok()) expected = TreeBlob(*reference);
  }

  const std::string path = args.scratch_dir + "/release.phx";
  PeakRss rss;
  std::vector<double> total_s;  // one entry per cycle, i.e. per window
  std::vector<double> release_s;
  std::vector<double> rss_mib;
  const Clock::time_point start = Clock::now();
  Windows windows;
  while (SecondsSince(start) < args.seconds) {
    const Cycle cycle = PublishCycle(stream, threads, path, report);
    if (!cycle.artifact) return false;
    auto blob = cycle.artifact->ExportBlob();
    report->Check(blob.ok() && !expected.empty() && *blob == expected,
                  "release equals the one-thread build");
    windows.Close();
    rss_mib.push_back(rss.EndWindow());
    total_s.push_back(cycle.total_s);
    release_s.push_back(cycle.release_s);
  }
  report->Check(rss.ok(), "peak RSS reset");
  // Memory and the fsync'd pack that dominates the release are not what
  // stolen CPU slows, so those take every cycle.
  report->Set("peak_rss_mib", Median(rss_mib));
  report->Set("release_ms", Median(release_s) * 1e3);
  SetWindowInfo(windows, report);

  const double cycle_s = windows.CleanMedian(total_s);
  report->Set("points_per_s", static_cast<double>(n) / cycle_s);
  report->Set("latency_p50_us", cycle_s * 1e6);
  report->Info("latency_samples",
               static_cast<double>(windows.CleanValues(total_s).size()));
  report->Info("builds", static_cast<double>(total_s.size()));
  {
    auto release = ServedArtifact::FromFile(path);
    report->Check(release.ok(), "reopen the last release");
    if (!release.ok()) return false;
    report->Set("w1", ReleaseW1(**release, stream, report));
  }

  if (args.trace) {
    SetTraceOverhead(report, static_cast<double>(n) / cycle_s,
                     cycle_s * 1e6);
    const std::string probe_path = args.scratch_dir + "/probe.phx";
    ProbePublishLayers(stream, threads, single_s, probe_path, report);
    ProbeServeLayers(probe_path, probe_path, PoolBytes(probe_path), report);
    ProbeSessionBuild(ZipfStream(size_t{1} << 18, args.seed), report);
    // The service is idle in this workload; serve its release as `live`
    // (mmapped) and `fixed` (pooled) for the fixed per-op probe.
    auto size = privhp::storage::FileSize(probe_path);
    privhp::RegistryOptions registry_options;
    registry_options.memory_budget_bytes = size.ok() ? *size : 1;
    registry_options.pool_bytes_per_artifact = PoolBytes(probe_path);
    Service service;
    if (StartService(registry_options,
                     {{"live", probe_path}, {"fixed", probe_path}},
                     args.scratch_dir + "/s.sock", 1, 1, &service, report)) {
      const std::vector<double> range_us =
          ProbeServiceOps(&service.clients[0], {"live", "fixed"}, report);
      ReadServerStats(&service.clients[0], Median(range_us),
                      {"op.range.latency_ns"}, report);
    }
    StopService(&service);
  }
  return true;
}

// ------------------------------------------------------------------ mixed

namespace {

// One read of the mixed workload: RANGE or QUANTILE on `live` or `fixed`,
// with the exact answer the in-process reference gives.
struct Read {
  std::string artifact;
  bool range = true;
  CellId cell;
  std::vector<double> qs;
  std::vector<double> expected;

  /// RANGE or QUANTILE on `live` or `fixed`: 0..kReadKinds-1.
  int kind() const { return (artifact == "live" ? 0 : 2) + (range ? 0 : 1); }
};
constexpr int kReadKinds = 4;

std::vector<Read> MixedReads(const ServedArtifact& live,
                             const ServedArtifact& fixed, uint64_t seed,
                             Report* report) {
  privhp::RandomEngine rng(seed ^ 0x4ead5ULL);
  std::vector<Read> reads;
  for (int i = 0; i < 256; ++i) {
    Read r;
    const ServedArtifact& artifact = (i % 2 == 0) ? live : fixed;
    r.artifact = (i % 2 == 0) ? "live" : "fixed";
    r.range = (i / 2) % 2 == 0;
    if (r.range) {
      const int level = 1 + static_cast<int>(rng.UniformInt(16));
      r.cell = CellId{level, rng.UniformInt(uint64_t{1} << level)};
      auto mass = artifact.RangeMass(r.cell);
      report->Check(mass.ok(), "reference RangeMass");
      r.expected = {mass.ok() ? *mass : 0.0};
    } else {
      for (int q = 0; q < 3; ++q) r.qs.push_back(rng.UniformDouble());
      std::sort(r.qs.begin(), r.qs.end());
      auto values = artifact.Quantiles(r.qs);
      report->Check(values.ok(), "reference Quantiles");
      if (values.ok()) r.expected = *values;
    }
    reads.push_back(std::move(r));
  }
  return reads;
}

bool SendRead(PrivHPClient* client, const Read& r) {
  return (r.range ? client->SendRangeMass(r.artifact, r.cell)
                  : client->SendQuantiles(r.artifact, r.qs))
      .ok();
}

bool CollectRead(PrivHPClient* client, const Read& r) {
  if (r.range) {
    auto mass = client->CollectRangeMass();
    return mass.ok() && std::vector<double>{*mass} == r.expected;
  }
  auto values = client->CollectQuantiles(r.qs.size());
  return values.ok() && *values == r.expected;
}

// The p50 of the probe's round trips (microseconds), given per read kind.
// The four kinds take turns and differ several-fold in latency (an
// mmapped RANGE is far cheaper than a pooled QUANTILE), so the median of
// all round trips would sit on the gap between two kinds and jump from
// run to run. This is the geometric mean of the kinds' exact medians
// instead: a change to any one kind moves it by a quarter of its
// relative size.
double ProbeP50(const std::vector<double> (&us)[kReadKinds]) {
  double log_sum = 0.0;
  for (const std::vector<double>& v : us) {
    log_sum += std::log(std::max(Median(v), 1e-3));
  }
  return std::exp(log_sum / kReadKinds);
}

}  // namespace

bool RunMixed(const Args& args, Report* report) {
  const size_t session_n = size_t{1} << 18;
  const size_t fixed_n = size_t{1} << 20;
  constexpr int kWindow = 16;
  // An INGEST holds one server worker for its whole session, and each
  // reader connection keeps at most one busy, so nproc - 1 workers leave
  // the reactor a CPU. The client threads mostly wait on their sockets:
  // on 4 vCPUs the whole process uses about 1.5 CPUs while serving.
  const int threads = Nproc();
  const int workers = std::max(2, threads - 1);
  report->Info("session_n", static_cast<double>(session_n));
  report->Info("fixed_n", static_cast<double>(fixed_n));
  report->Info("ingest_threads", 1.0);
  report->Info("window", static_cast<double>(kWindow));
  report->Info("threads", static_cast<double>(threads));
  report->Info("server_workers", static_cast<double>(workers));
  report->Info("connections", 3.0);
  const PointBatch session = ZipfStream(session_n, args.seed);
  const PointBatch fixed_stream = ZipfStream(fixed_n, args.seed ^ 0xf1f1ULL);

  // Fixtures: `live` is the session's release (what every re-INGEST
  // republishes), `fixed` a larger release served through the pool.
  const std::string live_path = args.scratch_dir + "/live.phx";
  const std::string fixed_path = args.scratch_dir + "/fixed.phx";
  Cycle live_cycle = PublishCycle(session, 1, live_path, report);
  Cycle fixed_cycle = PublishCycle(fixed_stream, threads, fixed_path, report);
  if (!live_cycle.artifact || !fixed_cycle.artifact) return false;
  auto live_size = privhp::storage::FileSize(live_path);
  if (!live_size.ok()) return false;
  privhp::RegistryOptions registry_options;
  // `live` fits the budget and is mmapped; `fixed` overflows it and goes
  // through a pool a quarter of its size, so it both hits and misses.
  registry_options.memory_budget_bytes = *live_size;
  registry_options.pool_bytes_per_artifact = PoolBytes(fixed_path);
  privhp::storage::PagedReadOptions pooled;
  pooled.use_buffer_pool = true;
  pooled.pool_bytes = registry_options.pool_bytes_per_artifact;
  auto fixed_ref = ServedArtifact::FromPagedFile(fixed_path, pooled);
  report->Check(fixed_ref.ok(), "pooled reference open");
  if (!fixed_ref.ok()) return false;
  const std::vector<Read> reads =
      MixedReads(*live_cycle.artifact, **fixed_ref, args.seed, report);
  const uint64_t expected_nodes = live_cycle.artifact->num_nodes();
  const double expected_mass = live_cycle.artifact->TotalMass();
  const double w1 = ReleaseW1(*live_cycle.artifact, session, report);
  live_cycle.artifact.reset();
  fixed_cycle.artifact.reset();

  PeakRss rss;
  Service service;
  report->Set("setup_s", TimedSetup(registry_options,
                                    {{"live", live_path}, {"fixed", fixed_path}},
                                    args.scratch_dir + "/s.sock", workers, 3,
                                    &service, report));
  if (!service.server) return false;
  {
    auto fixed = service.registry->Get("fixed");
    report->Check(fixed.ok() && (*fixed)->representation() ==
                                    ServedArtifact::Representation::kPool,
                  "fixed is served through the buffer pool");
  }

  std::vector<double> probe_us[kReadKinds];  // round trips, per kind
  uint64_t pipelined_reads = 0;
  Events session_s;  // (ack, seconds) per INGEST session
  Events release_s;
  const Clock::time_point start = Clock::now();
  Windows windows;
  auto running = [&]() { return SecondsSince(start) < args.seconds; };

  std::thread probe([&]() {
    PrivHPClient& client = service.clients[0];
    for (size_t i = 0; running(); ++i) {
      const Read& r = reads[i % reads.size()];
      const Clock::time_point sent = Clock::now();
      const bool ok = SendRead(&client, r) && CollectRead(&client, r);
      const Clock::time_point done = Clock::now();
      probe_us[r.kind()].push_back(SecondsBetween(sent, done) * 1e6);
      report->Check(ok, "probe read equals in-process reference");
      if (!ok) return;
    }
  });
  std::thread pipelined([&]() {
    PrivHPClient& client = service.clients[1];
    std::deque<size_t> in_flight;
    size_t next = reads.size() / 2;
    bool sent = true;
    bool ok = true;
    while (ok && (running() || !in_flight.empty())) {
      while (sent && running() && in_flight.size() < kWindow) {
        sent = SendRead(&client, reads[next % reads.size()]);
        if (sent) in_flight.push_back(next++);
      }
      if (in_flight.empty()) break;
      ok = CollectRead(&client, reads[in_flight.front() % reads.size()]);
      in_flight.pop_front();
      ++pipelined_reads;
      report->Check(ok, "pipelined read equals in-process reference");
    }
    report->Check(sent, "pipelined send");
  });
  std::thread ingest([&]() {
    PrivHPClient& client = service.clients[2];
    PrivHPClient::IngestSpec spec;
    spec.n = session_n;
    while (running()) {
      StagedSource source(&session);
      const Clock::time_point sent = Clock::now();
      auto result = client.Ingest("live", spec, &source);
      const Clock::time_point acked = Clock::now();
      const bool ok = result.ok() && result->points_sent == session_n &&
                      result->nodes == expected_nodes &&
                      result->total_mass == expected_mass;
      report->Check(ok, "INGEST report equals the reference build");
      if (!ok) return;
      session_s.emplace_back(acked, SecondsBetween(sent, acked));
      release_s.emplace_back(acked,
                             SecondsBetween(source.end_of_stream(), acked));
    }
  });
  const std::vector<double> rss_mib =
      CloseWindows(start, args.seconds, &windows, &rss);
  probe.join();
  pipelined.join();
  ingest.join();

  // Sessions run back to back, so the ingest rate is one session's points
  // over the median session.
  const double points_per_s =
      static_cast<double>(session_n) / windows.Quantile(session_s, 0.5);
  report->Set("points_per_s", points_per_s);
  std::vector<double> round_trips;
  for (const std::vector<double>& v : probe_us) {
    round_trips.insert(round_trips.end(), v.begin(), v.end());
  }
  const double p50_us = ProbeP50(probe_us);
  report->Set("latency_p50_us", p50_us);
  report->Info("latency_samples", static_cast<double>(round_trips.size()));
  // The tail is reported but not bounded: on a shared VM it follows how
  // long the hypervisor deschedules vCPUs (the probe's p99 went from about
  // 2.4 ms in seconds with no stolen CPU to 15 ms at 30% stolen).
  report->Info("latency_p99_us", Quantile(round_trips, 0.99));
  report->Info("pipelined_reads", static_cast<double>(pipelined_reads));
  SetWindowInfo(windows, report);
  report->Set("release_ms", windows.Quantile(release_s, 0.5) * 1e3);
  report->Set("w1", w1);
  report->Info("sessions", static_cast<double>(release_s.size()));

  if (args.trace) {
    SetTraceOverhead(report, points_per_s, p50_us);
    ProbeServiceOps(&service.clients[0], {"live", "fixed"}, report);
    ReadServerStats(&service.clients[0], Median(round_trips),
                    {"op.range.latency_ns", "op.quantile.latency_ns"}, report);
  }
  StopService(&service);
  report->Check(rss.ok(), "peak RSS reset");
  report->Set("peak_rss_mib", Median(rss_mib));

  if (args.trace) {
    ProbePublishLayers(session, 1, 0.0, args.scratch_dir + "/probe.phx",
                       report);
    ProbeServeLayers(live_path, fixed_path,
                     registry_options.pool_bytes_per_artifact, report);
    ProbeSessionBuild(session, report);
  }
  return true;
}

}  // namespace perfbench
