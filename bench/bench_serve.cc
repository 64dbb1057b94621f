// Serve-path throughput: an in-process PrivHPServer over a Unix socket,
// hammered by concurrent client threads.
//
//   bench_serve [--smoke] [--stats-smoke] [--pipeline N]
//               [--clients C] [--requests R] [--m M] [--n N] [--workers W]
//
// Reports requests/s, points/s, and client-observed p50/p99 request
// latency for a SAMPLE workload (m points per request, streamed in batch
// frames), an INGEST workload, and a RANGE point-read workload, per
// client count. Per-request latencies are recorded into an obs::Histogram
// shared by all client threads — the same lock-free recorder the server
// uses, exercised here from the measuring side. --smoke shrinks
// everything so the run doubles as a ctest end-to-end check of the
// service stack; --stats-smoke instead drives a small workload and
// asserts the STATS wire op reports it.
//
// --pipeline N runs the event-loop workload instead: N clients issue
// RANGE reads one-at-a-time (baseline) and then pipelined through the
// Send/Collect API, while one deliberately-stalled reader holds a large
// parked SAMPLE response for the whole run. Prints both rows, the
// pipelining speedup, and the server-side starvation evidence
// (queue-wait p99, workers busy, parked output bytes, drop counters).
// Combined with --smoke it shrinks into the bench.serve_pipeline_smoke
// ctest entry, which asserts correctness (in-order responses, the
// stalled peer harming nobody), not throughput ratios.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/builder.h"
#include "domain/interval_domain.h"
#include "io/point_sink.h"
#include "obs/histogram.h"
#include "obs/metrics_registry.h"
#include "service/client.h"
#include "service/server.h"

namespace privhp {
namespace {

using bench::CountingSink;

struct Config {
  bool smoke = false;
  bool stats_smoke = false;
  int pipeline = 0;  ///< > 0: run the pipelined workload with N clients
  int clients = 4;
  int requests = 50;
  size_t m = 10000;
  size_t n = size_t{1} << 16;
  int workers = 4;
};

// Builds the bench artifact (a mildly skewed 1-D stream of n points) and
// publishes it as "bench". Returns nullptr on failure.
std::unique_ptr<ArtifactRegistry> MakeBenchRegistry(size_t n) {
  auto domain = std::make_unique<IntervalDomain>();
  PrivHPOptions options;
  options.expected_n = n;
  options.k = 32;
  options.seed = 42;
  auto builder = PrivHPBuilder::Make(domain.get(), options);
  if (!builder.ok()) {
    std::fprintf(stderr, "%s\n", builder.status().ToString().c_str());
    return nullptr;
  }
  RandomEngine data_rng(7);
  for (size_t i = 0; i < n; ++i) {
    const double x = data_rng.UniformDouble() * data_rng.UniformDouble();
    if (!builder->Add({x}).ok()) return nullptr;
  }
  auto generator = std::move(*builder).Finish();
  if (!generator.ok()) {
    std::fprintf(stderr, "%s\n", generator.status().ToString().c_str());
    return nullptr;
  }
  auto registry = std::make_unique<ArtifactRegistry>();
  if (!registry
           ->Publish("bench", ServedArtifact::Make(std::move(domain),
                                                   std::move(*generator),
                                                   "bench"))
           .ok()) {
    return nullptr;
  }
  return registry;
}

// Records one timed call into the workload's shared histogram.
class RequestTimer {
 public:
  explicit RequestTimer(obs::Histogram* hist)
      : hist_(hist), start_(std::chrono::steady_clock::now()) {}
  ~RequestTimer() {
    hist_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }

 private:
  obs::Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

void PrintWorkloadRow(int clients, const char* workload, double seconds,
                      double total_requests, double mpts_per_s,
                      const obs::Histogram& latency) {
  const obs::HistogramSnapshot snap = latency.Snapshot();
  char mpts[16];
  if (mpts_per_s >= 0) {
    std::snprintf(mpts, sizeof(mpts), "%.2f", mpts_per_s);
  } else {
    std::snprintf(mpts, sizeof(mpts), "-");
  }
  std::printf("%8d %10s %12.1f %12.0f %12s %10.1f %10.1f\n", clients,
              workload, seconds * 1e3, total_requests / seconds, mpts,
              static_cast<double>(snap.ValueAtQuantile(0.5)) / 1e3,
              static_cast<double>(snap.ValueAtQuantile(0.99)) / 1e3);
}

int RunBench(const Config& config) {
  auto registry = MakeBenchRegistry(config.n);
  if (!registry) return 1;

  const std::string socket_path =
      "/tmp/privhp_bench_serve_" + std::to_string(::getpid()) + ".sock";
  ServerOptions server_options;
  server_options.unix_path = socket_path;
  server_options.num_workers = config.workers;
  auto server = PrivHPServer::Start(registry.get(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }

  std::printf("bench_serve: n=%zu, m=%zu/request, %d workers, unix socket\n",
              config.n, config.m, config.workers);
  std::printf("%8s %10s %12s %12s %12s %10s %10s\n", "clients", "workload",
              "total_ms", "req/s", "Mpts/s", "p50_us", "p99_us");

  int failures = 0;
  for (int clients : {1, config.clients}) {
    // SAMPLE workload.
    {
      obs::Histogram latency;
      bench::Stopwatch watch;
      std::vector<std::thread> threads;
      std::vector<int> errors(clients, 0);
      for (int t = 0; t < clients; ++t) {
        threads.emplace_back([&, t]() {
          auto client = PrivHPClient::ConnectUnix(socket_path);
          if (!client.ok()) {
            ++errors[t];
            return;
          }
          CountingSink sink;
          for (int r = 0; r < config.requests; ++r) {
            const uint64_t seed = 1 + t * 1000 + r;
            RequestTimer timer(&latency);
            if (!client->Sample("bench", config.m, seed, &sink).ok()) {
              ++errors[t];
              return;
            }
          }
          if (sink.num_processed() !=
              static_cast<uint64_t>(config.requests) * config.m) {
            ++errors[t];
          }
        });
      }
      for (std::thread& t : threads) t.join();
      const double seconds = watch.Seconds();
      for (int e : errors) failures += e;
      const double total_requests =
          static_cast<double>(clients) * config.requests;
      const double total_points = total_requests * config.m;
      PrintWorkloadRow(clients, "sample", seconds, total_requests,
                       total_points / seconds / 1e6, latency);
    }

    // INGEST workload: each client streams its own copy of the dataset
    // into the server (SocketPointSource -> BuildParallel -> AddBatch on
    // the worker) and the server publishes one artifact per client —
    // the wire-to-published dual of the SAMPLE row.
    {
      RandomEngine ingest_rng(23);
      PointBatch dataset(1);
      double* coords = dataset.AppendRows(config.n);
      for (size_t i = 0; i < config.n; ++i) {
        coords[i] = ingest_rng.UniformDouble() * ingest_rng.UniformDouble();
      }
      obs::Histogram latency;
      bench::Stopwatch watch;
      std::vector<std::thread> threads;
      std::vector<int> errors(clients, 0);
      for (int t = 0; t < clients; ++t) {
        threads.emplace_back([&, t]() {
          auto client = PrivHPClient::ConnectUnix(socket_path);
          if (!client.ok()) {
            ++errors[t];
            return;
          }
          PrivHPClient::IngestSpec spec;
          spec.dim = 1;
          spec.n = config.n;
          spec.batch = 4096;
          PointBatchSource source(&dataset);
          RequestTimer timer(&latency);
          auto report = client->Ingest(
              "ingest-" + std::to_string(t), spec, &source);
          if (!report.ok() || report->points_sent != config.n) ++errors[t];
        });
      }
      for (std::thread& t : threads) t.join();
      const double seconds = watch.Seconds();
      for (int e : errors) failures += e;
      const double total_points = static_cast<double>(clients) * config.n;
      PrintWorkloadRow(clients, "ingest", seconds, clients,
                       total_points / seconds / 1e6, latency);
    }

    // RANGE (point-read) workload: tiny requests, measures per-request
    // overhead rather than streaming throughput.
    {
      const int reads = config.requests * 20;
      obs::Histogram latency;
      bench::Stopwatch watch;
      std::vector<std::thread> threads;
      std::vector<int> errors(clients, 0);
      for (int t = 0; t < clients; ++t) {
        threads.emplace_back([&, t]() {
          auto client = PrivHPClient::ConnectUnix(socket_path);
          if (!client.ok()) {
            ++errors[t];
            return;
          }
          for (int r = 0; r < reads; ++r) {
            RequestTimer timer(&latency);
            auto mass = client->RangeMass(
                "bench", CellId{4, static_cast<uint64_t>(r % 16)});
            if (!mass.ok()) {
              ++errors[t];
              return;
            }
          }
        });
      }
      for (std::thread& t : threads) t.join();
      const double seconds = watch.Seconds();
      for (int e : errors) failures += e;
      const double total_requests = static_cast<double>(clients) * reads;
      PrintWorkloadRow(clients, "range", seconds, total_requests, -1.0,
                       latency);
    }
  }

  const obs::MetricsSnapshot stats = (*server)->StatsSnapshot();
  const uint64_t errors = stats.CounterOr("server.errors");
  std::printf(
      "server: %llu connections, %llu requests, %llu points sampled, "
      "%llu errors\n",
      static_cast<unsigned long long>(stats.CounterOr("server.connections")),
      static_cast<unsigned long long>(stats.CounterOr("server.requests")),
      static_cast<unsigned long long>(stats.CounterOr("sample.points")),
      static_cast<unsigned long long>(errors));
  (*server)->Stop();
  std::remove(socket_path.c_str());
  if (failures > 0 || errors > 0) {
    std::fprintf(stderr, "bench_serve: %d client failures, %llu server "
                         "errors\n",
                 failures, static_cast<unsigned long long>(errors));
    return 1;
  }
  return 0;
}

// Event-loop workload: N clients hammer RANGE one-at-a-time and then
// pipelined through the Send/Collect window, while one raw socket
// requests a huge SAMPLE and never reads a byte. With a small output
// cap the stalled response parks almost immediately, so the run
// demonstrates that a dead reader holds one parked stream — not a
// worker — and that pipelining removes the per-request round trip.
// Every collected mass is checked against a pre-fetched expected table,
// which is also the in-order evidence: a response delivered out of
// request order pairs with the wrong cell and mismatches.
int RunPipeline(const Config& config) {
  auto registry = MakeBenchRegistry(config.n);
  if (!registry) return 1;

  constexpr size_t kOutputCap = 256 * 1024;
  const std::string socket_path =
      "/tmp/privhp_bench_pipeline_" + std::to_string(::getpid()) + ".sock";
  ServerOptions server_options;
  server_options.unix_path = socket_path;
  server_options.num_workers = config.workers;
  server_options.max_output_queue_bytes = kOutputCap;
  auto server = PrivHPServer::Start(registry.get(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }

  const int clients = config.pipeline;
  const int reads = config.requests * 20;
  constexpr int kWindow = 16;

  std::printf(
      "bench_serve --pipeline: n=%zu, %d clients x %d reads, %d workers, "
      "window %d, stalled reader parked behind a %zu KiB output cap\n",
      config.n, clients, reads, config.workers, kWindow, kOutputCap / 1024);
  std::printf("%8s %10s %12s %12s %12s %10s %10s\n", "clients", "workload",
              "total_ms", "req/s", "Mpts/s", "p50_us", "p99_us");

  // Ground truth for the 16 cells every client cycles through.
  std::vector<double> expected(16);
  {
    auto probe = PrivHPClient::ConnectUnix(socket_path);
    if (!probe.ok()) return 1;
    for (int c = 0; c < 16; ++c) {
      auto mass = probe->RangeMass("bench", CellId{4, uint64_t(c)});
      if (!mass.ok()) {
        std::fprintf(stderr, "%s\n", mass.status().ToString().c_str());
        return 1;
      }
      expected[c] = *mass;
    }
  }

  // The stalled reader: request ~8 MB of sample points, read nothing.
  // The stream parks at the output cap and stays parked for the whole
  // run (the 30 s write-stall deadline is far beyond the bench).
  auto staller = ConnectUnix(socket_path);
  if (!staller.ok()) return 1;
  // A fresh blocking socket takes the small request whole.
  FrameWriter request;
  if (!request.Enqueue(EncodeSampleRequest("bench", 1u << 20, 1)).ok()) {
    return 1;
  }
  Result<bool> sent = request.Pump(*staller);
  if (!sent.ok() || !*sent) return 1;
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  int failures = 0;
  double sync_rps = 0.0;
  double pipe_rps = 0.0;

  // Baseline: one request in flight per connection.
  {
    obs::Histogram latency;
    bench::Stopwatch watch;
    std::vector<std::thread> threads;
    std::vector<int> errors(clients, 0);
    for (int t = 0; t < clients; ++t) {
      threads.emplace_back([&, t]() {
        auto client = PrivHPClient::ConnectUnix(socket_path);
        if (!client.ok()) {
          ++errors[t];
          return;
        }
        for (int r = 0; r < reads; ++r) {
          RequestTimer timer(&latency);
          auto mass =
              client->RangeMass("bench", CellId{4, uint64_t(r % 16)});
          if (!mass.ok() || *mass != expected[r % 16]) {
            ++errors[t];
            return;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double seconds = watch.Seconds();
    for (int e : errors) failures += e;
    const double total = static_cast<double>(clients) * reads;
    sync_rps = total / seconds;
    PrintWorkloadRow(clients, "range", seconds, total, -1.0, latency);
  }

  // Pipelined: keep kWindow requests in flight; the latency histogram
  // records per-collect waits, so p50/p99 show the response stream
  // cadence rather than full round trips.
  {
    obs::Histogram latency;
    bench::Stopwatch watch;
    std::vector<std::thread> threads;
    std::vector<int> errors(clients, 0);
    for (int t = 0; t < clients; ++t) {
      threads.emplace_back([&, t]() {
        auto client = PrivHPClient::ConnectUnix(socket_path);
        if (!client.ok()) {
          ++errors[t];
          return;
        }
        int sent = 0;
        auto send_next = [&]() {
          const Status s = client->SendRangeMass(
              "bench", CellId{4, uint64_t(sent % 16)});
          if (s.ok()) ++sent;
          return s.ok();
        };
        while (sent < reads && sent < kWindow) {
          if (!send_next()) {
            ++errors[t];
            return;
          }
        }
        for (int r = 0; r < reads; ++r) {
          RequestTimer timer(&latency);
          auto mass = client->CollectRangeMass();
          if (!mass.ok() || *mass != expected[r % 16]) {
            ++errors[t];
            return;
          }
          if (sent < reads && !send_next()) {
            ++errors[t];
            return;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double seconds = watch.Seconds();
    for (int e : errors) failures += e;
    const double total = static_cast<double>(clients) * reads;
    pipe_rps = total / seconds;
    PrintWorkloadRow(clients, "pipelined", seconds, total, -1.0, latency);
  }

  if (sync_rps > 0) {
    std::printf("pipelining speedup: %.2fx\n", pipe_rps / sync_rps);
  }

  // Server-side starvation evidence, over the wire like `privhp top`
  // would see it.
  int checks_failed = 0;
  auto expect_check = [&checks_failed](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "pipeline smoke FAILED: %s\n", what);
      ++checks_failed;
    }
  };
  {
    auto stats_client = PrivHPClient::ConnectUnix(socket_path);
    if (!stats_client.ok()) {
      failures += 1;
    } else {
      auto snap = stats_client->Stats();
      if (!snap.ok()) {
        failures += 1;
      } else {
        const obs::HistogramSnapshot* qw =
            snap->FindHistogram("server.queue_wait_ns");
        const double qw_p99_us =
            qw ? static_cast<double>(qw->ValueAtQuantile(0.99)) / 1e3 : -1.0;
        const int64_t busy = snap->GaugeOr("server.workers_busy");
        const int64_t parked_bytes =
            snap->GaugeOr("server.output_queue_bytes");
        const int64_t open = snap->GaugeOr("server.connections_open");
        const int64_t drop_bp =
            snap->CounterOr("server.connections_dropped.backpressure");
        const int64_t drop_idle =
            snap->CounterOr("server.connections_dropped.idle");
        std::printf(
            "server: queue_wait p99 %.1f us, workers busy %lld/%lld, "
            "parked output %lld bytes, open conns %lld, drops "
            "backpressure=%lld idle=%lld\n",
            qw_p99_us, static_cast<long long>(busy),
            static_cast<long long>(snap->GaugeOr("server.workers_total")),
            static_cast<long long>(parked_bytes),
            static_cast<long long>(open), static_cast<long long>(drop_bp),
            static_cast<long long>(drop_idle));
        if (config.smoke) {
          // Correctness gates only — never throughput ratios.
          expect_check(parked_bytes > 0,
                       "stalled reader's output is parked server-side");
          expect_check(parked_bytes < int64_t(2 * kOutputCap),
                       "parked output bounded near the configured cap");
          expect_check(open >= 2,
                       "staller + stats connections still open");
          expect_check(drop_bp == 0 && drop_idle == 0,
                       "no drops within the smoke run's deadlines");
          expect_check(busy < snap->GaugeOr("server.workers_total"),
                       "parked stream is not pinning a worker");
        }
      }
    }
  }

  const uint64_t errors =
      (*server)->StatsSnapshot().CounterOr("server.errors");
  staller->Close();
  (*server)->Stop();
  std::remove(socket_path.c_str());
  if (failures > 0 || checks_failed > 0 || errors > 0) {
    std::fprintf(stderr,
                 "bench_serve --pipeline: %d client failures, %d check "
                 "failures, %llu server errors\n",
                 failures, checks_failed,
                 static_cast<unsigned long long>(errors));
    return 1;
  }
  if (config.smoke) std::printf("pipeline smoke: all checks passed\n");
  return 0;
}

// End-to-end STATS check for ctest: drive a small workload against a
// live server, fetch the snapshot over the wire, and verify the
// instrumentation reported it. Fails loudly on any missing metric, so a
// regression in the wire format, the decoder, or the per-endpoint
// instrumentation turns the bench suite red.
int RunStatsSmoke() {
  auto domain = std::make_unique<IntervalDomain>();
  PrivHPOptions options;
  options.expected_n = 4096;
  options.k = 32;
  options.seed = 42;
  auto builder = PrivHPBuilder::Make(domain.get(), options);
  if (!builder.ok()) return 1;
  RandomEngine data_rng(7);
  for (size_t i = 0; i < 4096; ++i) {
    if (!builder->Add({data_rng.UniformDouble()}).ok()) return 1;
  }
  auto generator = std::move(*builder).Finish();
  if (!generator.ok()) return 1;
  ArtifactRegistry registry;
  if (!registry
           .Publish("bench", ServedArtifact::Make(std::move(domain),
                                                  std::move(*generator),
                                                  "bench"))
           .ok()) {
    return 1;
  }
  const std::string socket_path =
      "/tmp/privhp_stats_smoke_" + std::to_string(::getpid()) + ".sock";
  ServerOptions server_options;
  server_options.unix_path = socket_path;
  server_options.num_workers = 2;
  auto server = PrivHPServer::Start(&registry, server_options);
  if (!server.ok()) return 1;

  int checks_failed = 0;
  auto expect = [&checks_failed](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "stats smoke FAILED: %s\n", what);
      ++checks_failed;
    }
  };

  {
    auto client = PrivHPClient::ConnectUnix(socket_path);
    expect(client.ok(), "connect");
    if (!client.ok()) return 1;
    CountingSink sink;
    for (int r = 0; r < 3; ++r) {
      expect(client->Sample("bench", 500, uint64_t(r + 1), &sink).ok(),
             "sample request");
    }
    for (int r = 0; r < 5; ++r) {
      expect(client->RangeMass(
                       "bench", CellId{3, static_cast<uint64_t>(r % 8)})
                 .ok(),
             "range request");
    }
    expect(!client->RangeMass("ghost", CellId{1, 0}).ok(),
           "range on missing artifact must fail");

    auto snap = client->Stats();
    expect(snap.ok(), "STATS round trip");
    if (snap.ok()) {
      expect(snap->CounterOr("op.sample.requests") == 3,
             "op.sample.requests == 3");
      expect(snap->CounterOr("op.range.requests") == 6,
             "op.range.requests == 6");
      expect(snap->CounterOr("op.range.errors") == 1,
             "op.range.errors == 1");
      expect(snap->CounterOr("sample.points") == 1500,
             "sample.points == 1500");
      const obs::HistogramSnapshot* lat =
          snap->FindHistogram("op.sample.latency_ns");
      expect(lat != nullptr && lat->Count() == 3 &&
                 lat->ValueAtQuantile(0.99) > 0,
             "sample latency histogram populated");
      const obs::HistogramSnapshot* out =
          snap->FindHistogram("op.sample.bytes_out");
      expect(out != nullptr && out->max > 500 * 8,
             "sample bytes_out reflects streamed payload");
      expect(snap->GaugeOr("server.workers_total") == 2,
             "server.workers_total == 2");
      expect(snap->GaugeOr("registry.artifacts") == 1,
             "registry.artifacts == 1");
      expect(snap->GaugeOr("artifact.bench.resident_bytes") > 0,
             "artifact.bench.resident_bytes > 0");
      expect(snap->CounterOr("op.stats.requests") == 1,
             "op.stats.requests counted before snapshot");
    }
  }

  (*server)->Stop();
  std::remove(socket_path.c_str());
  if (checks_failed > 0) return 1;
  std::printf("stats smoke: all checks passed\n");
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
    } else if (flag == "--stats-smoke") {
      config.stats_smoke = true;
    } else if (flag == "--pipeline") {
      config.pipeline = std::atoi(next());
    } else if (flag == "--clients") {
      config.clients = std::atoi(next());
    } else if (flag == "--requests") {
      config.requests = std::atoi(next());
    } else if (flag == "--m") {
      config.m = std::strtoull(next(), nullptr, 10);
    } else if (flag == "--n") {
      config.n = std::strtoull(next(), nullptr, 10);
    } else if (flag == "--workers") {
      config.workers = std::atoi(next());
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (config.stats_smoke) return privhp::RunStatsSmoke();
  if (config.smoke) {
    config.clients = 4;
    config.requests = 5;
    config.m = 2000;
    config.n = size_t{1} << 13;
    config.workers = 2;
  }
  if (config.pipeline > 0) return privhp::RunPipeline(config);
  return privhp::RunBench(config);
}
