// privhp — command-line front end for the library.
//
//   privhp build   --in data.csv --dim 2 --epsilon 1.0 --k 32
//                  --out generator.tree [--n N] [--seed S]
//   privhp sample  --tree generator.tree --m 10000 --out synth.csv
//   privhp quantile --tree generator.tree --q 0.5 [--q 0.9 ...]   (d = 1)
//   privhp heavy   --tree generator.tree --threshold 0.05
//   privhp w1      --a a.csv --b b.csv --dim 1        (exact for d = 1,
//                                                      sliced otherwise)
//   privhp pack    --tree generator.tree --out generator.paged
//                  [--page-size BYTES]   (default 4096)
//   privhp serve   --unix /tmp/privhp.sock | --port 7557
//                  [--load name=gen.tree ...] [--workers N]
//                  [--memory-budget-mb MB] [--auth-token T]
//   (client commands over TCP take --auth-token T to match)
//   privhp query   --unix PATH | --host H --port P  --artifact NAME
//                  --sample M | --quantile Q | --heavy T |
//                  --level L --index I | --export F | --list
//   privhp ingest  --unix PATH | --host H --port P  --artifact NAME
//                  --in data.csv --dim D [--epsilon E] [--k K] [--n N]
//   privhp stats   --unix PATH | --host H --port P [--raw]
//   privhp top     --unix PATH | --host H --port P
//                  [--interval-ms MS] [--iterations N]
//
// The tree file is the released eps-DP artifact; every subcommand other
// than `build` is post-processing and can be run any number of times.
// `sample`, `quantile` and `heavy` read a tree file or its packed form
// (`pack`), take the domain from the file's header, and answer exactly
// as `serve` does for the same file.
// `serve` keeps released artifacts resident and answers the same
// post-processing queries over sockets; `ingest` streams a dataset into a
// server-side bounded-memory build and publishes the result.
// A flag the command does not read, or a numeric value that does not
// parse whole ("abc", "3x"), prints the usage and exits 2.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/macros.h"
#include "common/table_printer.h"
#include "core/builder.h"
#include "core/queries.h"
#include "domain/hypercube_domain.h"
#include "eval/wasserstein.h"
#include "io/point_stream.h"
#include "obs/histogram.h"
#include "obs/metrics_registry.h"
#include "service/artifact_registry.h"
#include "service/client.h"
#include "service/server.h"
#include "service/service_metrics.h"
#include "storage/artifact_packer.h"
#include "storage/file_io.h"

namespace privhp {
namespace {

// What a flag's value must be. Parse checks every value against its
// flag's kind, so a handler never sees "abc" or "3x" where a number goes,
// nor a port outside 1..65535 (0..65535 where 0 asks for an ephemeral
// listening port).
enum class Kind { kText, kInt, kUint, kReal, kSwitch, kPort, kListenPort };

// Parses all of \p text as a T (int, uint64_t or double): an empty value,
// trailing characters ("3x"), a sign on an unsigned value or a value out
// of T's range fails.
template <typename T>
bool ParseWhole(const std::string& text, T* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  if constexpr (std::is_same_v<T, double>) {
    *out = std::strtod(begin, &end);
  } else if constexpr (std::is_unsigned_v<T>) {
    if (text[0] == '-') return false;
    *out = std::strtoull(begin, &end, 10);
  } else {
    const long long v = std::strtoll(begin, &end, 10);
    if (v < std::numeric_limits<T>::min() ||
        v > std::numeric_limits<T>::max()) {
      return false;
    }
    *out = static_cast<T>(v);
  }
  return errno == 0 && end == begin + text.size();
}

bool ValueFits(const std::string& text, Kind kind) {
  int i = 0;
  uint64_t u = 0;
  double d = 0;
  switch (kind) {
    case Kind::kInt:
      return ParseWhole(text, &i);
    case Kind::kUint:
      return ParseWhole(text, &u);
    case Kind::kReal:
      return ParseWhole(text, &d);
    case Kind::kPort:
    case Kind::kListenPort:
      return ParseWhole(text, &i) && i >= (kind == Kind::kPort ? 1 : 0) &&
             i <= std::numeric_limits<uint16_t>::max();
    default:
      return true;
  }
}

struct Args {
  std::map<std::string, std::vector<std::string>> flags;

  const std::string* Get(const std::string& key) const {
    auto it = flags.find(key);
    return it == flags.end() || it->second.empty() ? nullptr
                                                   : &it->second.front();
  }
  std::string GetOr(const std::string& key, const std::string& fallback)
      const {
    const std::string* v = Get(key);
    return v ? *v : fallback;
  }
  // The value of a numeric flag, or \p fallback when it is absent. Parse
  // has already checked the value against the flag's kind.
  template <typename T>
  T Number(const std::string& key, T fallback) const {
    const std::string* v = Get(key);
    if (v != nullptr) PRIVHP_CHECK(ParseWhole(*v, &fallback));
    return fallback;
  }
  // Every value of a repeated numeric flag, in order.
  std::vector<double> Reals(const std::string& key) const {
    std::vector<double> values;
    auto it = flags.find(key);
    if (it == flags.end()) return values;
    for (const std::string& text : it->second) {
      PRIVHP_CHECK(ParseWhole(text, &values.emplace_back()));
    }
    return values;
  }
};

// "; peak RSS <x> MiB" from this process's VmHWM (/proc/self/status), or
// "" where that is not available. VmHWM belongs to this program image;
// getrusage()'s ru_maxrss would also carry the peak of whatever process
// spawned it (a 14 MiB Python test script, say) across the exec.
std::string PeakRssNote() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return "";
  char line[256];
  unsigned long long kib = 0;
  bool found = false;
  while (!found && std::fgets(line, sizeof(line), status) != nullptr) {
    found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
  }
  std::fclose(status);
  if (!found) return "";
  char note[64];
  std::snprintf(note, sizeof(note), "; peak RSS %.1f MiB", kib / 1024.0);
  return note;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  privhp build    --in data.csv --dim D --out gen.tree\n"
      "                  [--epsilon E] [--k K] [--n N] [--seed S]\n"
      "                  [--threads T]   (sharded parallel ingestion;\n"
      "                                   output is identical for any T)\n"
      "  privhp sample   --tree gen.tree --m M --out synth.csv [--seed S]\n"
      "  privhp quantile --tree gen.tree --q Q [--q Q2 ...]   (dim 1)\n"
      "  privhp heavy    --tree gen.tree --threshold T\n"
      "                  (--tree takes a tree file or a packed one)\n"
      "  privhp w1       --a a.csv --b b.csv --dim D\n"
      "  privhp pack     --tree gen.tree --out gen.paged\n"
      "                  [--page-size BYTES]   (power of two, 4096..1048576;\n"
      "                  default 4096)\n"
      "  privhp serve    --unix PATH | --port P [--host H]\n"
      "                  [--load name=gen.tree ...] [--workers N]\n"
      "                  [--seed S] [--memory-budget-mb MB]\n"
      "                  [--auth-token T]   (TCP clients must present T)\n"
      "  privhp query    --unix PATH | --host H --port P [--artifact A]\n"
      "                  [--auth-token T]\n"
      "                  --list | --sample M [--seed S] [--out F]\n"
      "                  | --quantile Q [--quantile Q2 ...]\n"
      "                  | --heavy T | --level L --index I | --export F\n"
      "  privhp ingest   --unix PATH | --host H --port P --artifact A\n"
      "                  --in data.csv --dim D [--epsilon E] [--k K]\n"
      "                  [--n N] [--seed S] [--threads T]\n"
      "  privhp stats    --unix PATH | --host H --port P [--raw]\n"
      "                  (one-shot metrics dump from a live server)\n"
      "  privhp top      --unix PATH | --host H --port P\n"
      "                  [--interval-ms MS] [--iterations N]\n"
      "                  (refreshing per-endpoint latency/throughput view)\n");
  return 2;
}

// Counts the points of a CSV file in one O(1)-memory pass that parses
// nothing, for the stream horizon (expected_n) when --n is absent. A
// malformed row is reported, with its line number, by the read that
// follows.
Result<uint64_t> CountCsvPoints(const std::string& path, int dim) {
  PRIVHP_ASSIGN_OR_RETURN(CsvPointReader reader,
                          CsvPointReader::Open(path, dim));
  return reader.CountDataLines();
}

int Build(const Args& args) {
  const std::string* in = args.Get("in");
  const std::string* out = args.Get("out");
  if (!in || !out || !args.Get("dim")) {
    std::fprintf(stderr, "build needs --in, --out, --dim\n");
    return 2;
  }
  const int dim = args.Number("dim", 0);
  HypercubeDomain domain(dim);
  PrivHPOptions options;
  options.epsilon = args.Number("epsilon", 1.0);
  options.k = args.Number<uint64_t>("k", 32);
  options.expected_n = args.Number<uint64_t>("n", 0);
  options.seed = args.Number<uint64_t>("seed", 42);
  const int threads = args.Number("threads", 1);
  if (threads < 1) {
    std::fprintf(stderr, "--threads must be >= 1\n");
    return 2;
  }

  // The CSV streams through the builder in shard windows, so memory stays
  // bounded whatever the file size.
  Result<PrivHPGenerator> generator = [&]() -> Result<PrivHPGenerator> {
    if (options.expected_n == 0) {
      PRIVHP_ASSIGN_OR_RETURN(options.expected_n, CountCsvPoints(*in, dim));
    }
    PRIVHP_ASSIGN_OR_RETURN(CsvPointReader reader,
                            CsvPointReader::Open(*in, dim));
    return PrivHPBuilder::BuildParallel(&domain, options, &reader, threads);
  }();
  if (!generator.ok()) {
    std::fprintf(stderr, "%s\n", generator.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "%s\n", generator->plan().ToString().c_str());
  std::fprintf(stderr, "streamed %s across %d shard(s)\n", in->c_str(),
               threads);
  const Status saved = generator->Save(*out);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s (%zu nodes)%s\n", out->c_str(),
               generator->tree().num_nodes(), PeakRssNote().c_str());
  return 0;
}

// Opens --tree, a tree-v2 or packed file, as `serve --load` does: the
// domain comes from the file's header, and the answers below are the
// calls `serve` answers with.
Result<std::shared_ptr<const ServedArtifact>> LoadArtifact(const Args& args) {
  const std::string* tree = args.Get("tree");
  if (!tree) return Status::InvalidArgument("missing --tree");
  return ServedArtifact::FromFile(*tree);
}

int Sample(const Args& args) {
  const std::string* out = args.Get("out");
  if (!args.Get("m") || !out) {
    std::fprintf(stderr, "sample needs --tree, --m, --out\n");
    return 2;
  }
  auto artifact = LoadArtifact(args);
  if (!artifact.ok()) {
    std::fprintf(stderr, "%s\n", artifact.status().ToString().c_str());
    return 1;
  }
  const uint64_t m = args.Number<uint64_t>("m", 0);
  RandomEngine rng(args.Number<uint64_t>("seed", 1));
  // Stream points straight into the CSV sink through the artifact's
  // alias sampler: the serve side is bounded memory in m, just like the
  // build side is in n.
  auto writer = CsvPointWriter::Open(*out);
  if (!writer.ok()) {
    std::fprintf(stderr, "%s\n", writer.status().ToString().c_str());
    return 1;
  }
  Status written = (*artifact)->GenerateTo(m, &rng, &*writer);
  if (written.ok()) written = writer->Close();
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %llu synthetic points to %s\n",
               static_cast<unsigned long long>(m), out->c_str());
  return 0;
}

int Quantile(const Args& args) {
  const std::vector<double> qs = args.Reals("q");
  if (qs.empty()) {
    std::fprintf(stderr, "quantile needs at least one --q\n");
    return 2;
  }
  auto artifact = LoadArtifact(args);
  if (!artifact.ok()) {
    std::fprintf(stderr, "%s\n", artifact.status().ToString().c_str());
    return 1;
  }
  auto values = (*artifact)->Quantiles(qs);
  if (!values.ok()) {
    std::fprintf(stderr, "%s\n", values.status().ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < qs.size(); ++i) {
    std::printf("q=%.4f -> %.6f\n", qs[i], (*values)[i]);
  }
  return 0;
}

int Heavy(const Args& args) {
  auto artifact = LoadArtifact(args);
  if (!artifact.ok()) {
    std::fprintf(stderr, "%s\n", artifact.status().ToString().c_str());
    return 1;
  }
  auto heavy = (*artifact)->Heavy(args.Number("threshold", 0.05));
  if (!heavy.ok()) {
    std::fprintf(stderr, "%s\n", heavy.status().ToString().c_str());
    return 1;
  }
  for (const HeavyCell& cell : *heavy) {
    std::printf("level=%d index=%llu fraction=%.4f\n", cell.cell.level,
                static_cast<unsigned long long>(cell.cell.index),
                cell.fraction);
  }
  return 0;
}

int W1(const Args& args) {
  const std::string* a = args.Get("a");
  const std::string* b = args.Get("b");
  if (!args.Get("dim") || !a || !b) {
    std::fprintf(stderr, "w1 needs --a, --b, --dim\n");
    return 2;
  }
  const int dim = args.Number("dim", 0);
  auto pa = ReadPointsCsv(*a, dim);
  auto pb = ReadPointsCsv(*b, dim);
  if (!pa.ok() || !pb.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!pa.ok() ? pa.status() : pb.status()).ToString().c_str());
    return 1;
  }
  double w1;
  if (dim == 1) {
    w1 = Wasserstein1DPoints(*pa, *pb);
  } else {
    RandomEngine rng(7);
    w1 = SlicedW1(*pa, *pb, 64, &rng);
  }
  std::printf("W1 = %.6f%s\n", w1, dim == 1 ? "" : " (sliced estimate)");
  return 0;
}

int Pack(const Args& args) {
  const std::string* tree = args.Get("tree");
  const std::string* out = args.Get("out");
  if (!tree || !out) {
    std::fprintf(stderr, "pack needs --tree and --out\n");
    return 2;
  }
  storage::PackOptions options;
  options.page_size = static_cast<uint32_t>(
      args.Number<uint64_t>("page-size", options.page_size));
  const Status packed = storage::PackTreeFile(*tree, *out, options);
  if (!packed.ok()) {
    std::fprintf(stderr, "%s\n", packed.ToString().c_str());
    return 1;
  }
  auto size = storage::FileSize(*out);
  std::fprintf(stderr, "packed %s -> %s (%llu bytes, %u-byte pages)\n",
               tree->c_str(), out->c_str(),
               static_cast<unsigned long long>(
                   size.ok() ? *size : uint64_t{0}),
               options.page_size);
  return 0;
}

volatile std::sig_atomic_t g_shutdown = 0;

void HandleShutdownSignal(int) { g_shutdown = 1; }

int Serve(const Args& args) {
  ServerOptions options;
  options.unix_path = args.GetOr("unix", "");
  const std::string* port = args.Get("port");
  options.tcp_port = args.Number("port", options.tcp_port);
  options.tcp_host = args.GetOr("host", "127.0.0.1");
  options.num_workers = args.Number("workers", 4);
  options.seed = args.Number<uint64_t>("seed", 1);
  options.auth_token = args.GetOr("auth-token", "");
  if (options.unix_path.empty() && !port) {
    std::fprintf(stderr, "serve needs --unix PATH and/or --port P\n");
    return 2;
  }

  RegistryOptions registry_options;
  registry_options.memory_budget_bytes =
      args.Number<uint64_t>("memory-budget-mb", 0) * (size_t{1} << 20);
  ArtifactRegistry registry(registry_options);
  auto it = args.flags.find("load");
  if (it != args.flags.end()) {
    for (const std::string& spec : it->second) {
      const size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
        std::fprintf(stderr, "--load wants name=path, got '%s'\n",
                     spec.c_str());
        return 2;
      }
      const std::string name = spec.substr(0, eq);
      const std::string path = spec.substr(eq + 1);
      const Status loaded = registry.LoadFile(name, path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "loading %s: %s\n", spec.c_str(),
                     loaded.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "loaded artifact '%s' from %s\n", name.c_str(),
                   path.c_str());
    }
  }

  auto server = PrivHPServer::Start(&registry, options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  if (!options.unix_path.empty()) {
    std::fprintf(stderr, "listening on unix:%s\n", options.unix_path.c_str());
  }
  if (port) {
    std::fprintf(stderr, "listening on tcp:%s:%u\n", options.tcp_host.c_str(),
                 (*server)->tcp_port());
  }
  std::fprintf(stderr, "%d workers, %zu artifact(s); ^C to stop\n",
               options.num_workers, registry.size());

  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGTERM, HandleShutdownSignal);
  while (!g_shutdown) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  (*server)->Stop();
  const obs::MetricsSnapshot stats = (*server)->StatsSnapshot();
  auto count = [&stats](const char* name) {
    return static_cast<unsigned long long>(stats.CounterOr(name));
  };
  std::fprintf(stderr,
               "served %llu requests on %llu connections "
               "(%llu points sampled, %llu ingests published, "
               "%llu errors)%s\n",
               count("server.requests"), count("server.connections"),
               count("sample.points"), count("server.ingests_published"),
               count("server.errors"), PeakRssNote().c_str());
  return 0;
}

Result<PrivHPClient> ConnectFromArgs(const Args& args) {
  const std::string* unix_path = args.Get("unix");
  if (unix_path) return PrivHPClient::ConnectUnix(*unix_path);
  if (!args.Get("port")) {
    return Status::InvalidArgument("need --unix PATH or --host/--port");
  }
  // A server started with --auth-token demands the handshake as the TCP
  // connection's first frame; ConnectTcp runs it when given the token.
  // Parse has checked that the port lies in 1..65535.
  return PrivHPClient::ConnectTcp(
      args.GetOr("host", "127.0.0.1"),
      static_cast<uint16_t>(args.Number("port", 0)),
      args.GetOr("auth-token", ""));
}

int Query(const Args& args) {
  auto client = ConnectFromArgs(args);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  if (args.Get("list")) {
    auto names = client->List();
    if (!names.ok()) {
      std::fprintf(stderr, "%s\n", names.status().ToString().c_str());
      return 1;
    }
    for (const std::string& name : *names) std::printf("%s\n", name.c_str());
    return 0;
  }
  const std::string* artifact = args.Get("artifact");
  if (!artifact) {
    std::fprintf(stderr, "query needs --artifact (or --list)\n");
    return 2;
  }
  if (args.Get("sample")) {
    const std::string* out = args.Get("out");
    if (!out) {
      std::fprintf(stderr, "query --sample needs --out F\n");
      return 2;
    }
    auto writer = CsvPointWriter::Open(*out);
    if (!writer.ok()) {
      std::fprintf(stderr, "%s\n", writer.status().ToString().c_str());
      return 1;
    }
    const uint64_t m = args.Number<uint64_t>("sample", 0);
    Status sampled = client->Sample(*artifact, m,
                                    args.Number<uint64_t>("seed", 0),
                                    &*writer);
    if (sampled.ok()) sampled = writer->Close();
    if (!sampled.ok()) {
      std::fprintf(stderr, "%s\n", sampled.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %llu synthetic points to %s\n",
                 static_cast<unsigned long long>(m), out->c_str());
    return 0;
  }
  if (args.flags.count("quantile")) {
    const std::vector<double> qs = args.Reals("quantile");
    auto values = client->Quantiles(*artifact, qs);
    if (!values.ok()) {
      std::fprintf(stderr, "%s\n", values.status().ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < values->size(); ++i) {
      std::printf("q=%.4f -> %.6f\n", qs[i], (*values)[i]);
    }
    return 0;
  }
  if (args.Get("heavy")) {
    auto heavy = client->Heavy(*artifact, args.Number("heavy", 0.0));
    if (!heavy.ok()) {
      std::fprintf(stderr, "%s\n", heavy.status().ToString().c_str());
      return 1;
    }
    for (const HeavyCell& cell : *heavy) {
      std::printf("level=%d index=%llu fraction=%.4f\n", cell.cell.level,
                  static_cast<unsigned long long>(cell.cell.index),
                  cell.fraction);
    }
    return 0;
  }
  if (args.Get("level") && args.Get("index")) {
    CellId cell;
    cell.level = args.Number("level", 0);
    cell.index = args.Number<uint64_t>("index", 0);
    auto mass = client->RangeMass(*artifact, cell);
    if (!mass.ok()) {
      std::fprintf(stderr, "%s\n", mass.status().ToString().c_str());
      return 1;
    }
    std::printf("mass(level=%d, index=%llu) = %.6f\n", cell.level,
                static_cast<unsigned long long>(cell.index), *mass);
    return 0;
  }
  if (const std::string* out = args.Get("export")) {
    auto artifact_bytes = client->Export(*artifact);
    if (!artifact_bytes.ok()) {
      std::fprintf(stderr, "%s\n",
                   artifact_bytes.status().ToString().c_str());
      return 1;
    }
    std::FILE* f = std::fopen(out->c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out->c_str());
      return 1;
    }
    const bool wrote = std::fwrite(artifact_bytes->data(), 1,
                                   artifact_bytes->size(),
                                   f) == artifact_bytes->size();
    // fclose also flushes; run it exactly once and fold its verdict in.
    if (std::fclose(f) != 0 || !wrote) {
      std::fprintf(stderr, "cannot write %s\n", out->c_str());
      return 1;
    }
    std::fprintf(stderr, "exported artifact '%s' to %s (%zu bytes)\n",
                 artifact->c_str(), out->c_str(), artifact_bytes->size());
    return 0;
  }
  std::fprintf(stderr,
               "query needs one of --list, --sample, --quantile, --heavy, "
               "--level/--index, --export\n");
  return 2;
}

int Ingest(const Args& args) {
  const std::string* artifact = args.Get("artifact");
  const std::string* in = args.Get("in");
  if (!artifact || !in || !args.Get("dim")) {
    std::fprintf(stderr, "ingest needs --artifact, --in, --dim\n");
    return 2;
  }
  auto client = ConnectFromArgs(args);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  const int dim = args.Number("dim", 0);
  PrivHPClient::IngestSpec spec;
  spec.dim = static_cast<uint32_t>(dim);
  spec.epsilon = args.Number("epsilon", 1.0);
  spec.k = args.Number<uint64_t>("k", 32);
  spec.n = args.Number<uint64_t>("n", 0);
  spec.seed = args.Number<uint64_t>("seed", 42);
  spec.threads = static_cast<uint32_t>(args.Number("threads", 1));
  if (spec.n == 0) {
    // The streaming horizon is required; for a file source, count points
    // in a pre-pass instead of demanding --n.
    auto count = CountCsvPoints(*in, dim);
    if (!count.ok()) {
      std::fprintf(stderr, "%s\n", count.status().ToString().c_str());
      return 1;
    }
    spec.n = *count;
  }
  auto reader = CsvPointReader::Open(*in, dim);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 1;
  }
  auto report = client->Ingest(*artifact, spec, &*reader);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "ingested %llu points; published '%s' (%llu nodes, total "
               "mass %.1f)%s\n",
               static_cast<unsigned long long>(report->points_sent),
               artifact->c_str(),
               static_cast<unsigned long long>(report->nodes),
               report->total_mass, PeakRssNote().c_str());
  return 0;
}

double NsToMs(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

// Interval view of one named histogram: current minus previous snapshot
// (or the cumulative view when there is no previous sample yet).
obs::HistogramSnapshot HistogramDelta(const obs::MetricsSnapshot& cur,
                                      const obs::MetricsSnapshot& prev,
                                      const std::string& name) {
  const obs::HistogramSnapshot* now = cur.FindHistogram(name);
  if (now == nullptr) return obs::HistogramSnapshot{};
  const obs::HistogramSnapshot* before = prev.FindHistogram(name);
  return before == nullptr ? *now : now->Delta(*before);
}

// The per-endpoint table both `stats` (cumulative) and `top` (interval)
// render: one row per wire op with latency percentiles and byte totals.
void PrintEndpointTable(const obs::MetricsSnapshot& cur,
                        const obs::MetricsSnapshot& prev, double seconds,
                        bool rates) {
  std::vector<std::string> columns = {"op",     rates ? "req/s" : "requests",
                                      "errors", "p50_ms",
                                      "p99_ms", "max_ms",
                                      "in_B",   "out_B"};
  TablePrinter table(rates ? "endpoints (interval)" : "endpoints", columns);
  for (int i = 0; i < kStatsNumOps; ++i) {
    const std::string op = ServiceOpName(ServiceOpAt(i));
    const std::string prefix = "op." + op + ".";
    const uint64_t requests = cur.CounterOr(prefix + "requests") -
                              prev.CounterOr(prefix + "requests");
    const uint64_t errors =
        cur.CounterOr(prefix + "errors") - prev.CounterOr(prefix + "errors");
    const obs::HistogramSnapshot lat =
        HistogramDelta(cur, prev, prefix + "latency_ns");
    const obs::HistogramSnapshot in =
        HistogramDelta(cur, prev, prefix + "bytes_in");
    const obs::HistogramSnapshot out =
        HistogramDelta(cur, prev, prefix + "bytes_out");
    table.BeginRow();
    table.Cell(op);
    if (rates) {
      table.Cell(static_cast<double>(requests) / seconds, 3);
    } else {
      table.Cell(requests);
    }
    table.Cell(errors);
    if (lat.Count() > 0) {
      table.Cell(NsToMs(lat.ValueAtQuantile(0.5)), 3);
      table.Cell(NsToMs(lat.ValueAtQuantile(0.99)), 3);
      table.Cell(NsToMs(lat.max), 3);
    } else {
      table.Cell(std::string("-"));
      table.Cell(std::string("-"));
      table.Cell(std::string("-"));
    }
    table.Cell(in.sum);
    table.Cell(out.sum);
  }
  table.Print(std::cout);
}

// Server/storage summary shared by `stats` and `top`: worker pool,
// connection queue, artifact inventory, and buffer-pool effectiveness.
void PrintServerSummary(const obs::MetricsSnapshot& snap) {
  const uint64_t hits = snap.CounterOr("pool.hits");
  const uint64_t misses = snap.CounterOr("pool.misses");
  const double hit_rate =
      hits + misses == 0
          ? 0.0
          : 100.0 * static_cast<double>(hits) /
                static_cast<double>(hits + misses);
  const obs::HistogramSnapshot* queue_wait =
      snap.FindHistogram("server.queue_wait_ns");
  std::printf(
      "workers %lld/%lld busy  queue depth %lld  queue wait p99 %.3f ms\n",
      static_cast<long long>(snap.GaugeOr("server.workers_busy")),
      static_cast<long long>(snap.GaugeOr("server.workers_total")),
      static_cast<long long>(snap.GaugeOr("server.queue_depth")),
      queue_wait == nullptr ? 0.0
                            : NsToMs(queue_wait->ValueAtQuantile(0.99)));
  std::printf(
      "artifacts %lld  resident %.1f MiB  publishes %llu  "
      "connections %llu  errors %llu\n",
      static_cast<long long>(snap.GaugeOr("registry.artifacts")),
      static_cast<double>(snap.GaugeOr("registry.resident_bytes")) /
          (1024.0 * 1024.0),
      static_cast<unsigned long long>(snap.CounterOr("registry.publishes")),
      static_cast<unsigned long long>(snap.CounterOr("server.connections")),
      static_cast<unsigned long long>(snap.CounterOr("server.errors")));
  std::printf(
      "requests %llu  replies written by workers %llu\n",
      static_cast<unsigned long long>(snap.CounterOr("server.requests")),
      static_cast<unsigned long long>(
          snap.CounterOr("server.replies_written_by_worker")));
  std::printf(
      "pool hits %llu misses %llu (%.1f%% hit)  evictions %llu  "
      "checksum verifies %llu\n",
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(misses), hit_rate,
      static_cast<unsigned long long>(snap.CounterOr("pool.evictions")),
      static_cast<unsigned long long>(
          snap.CounterOr("pool.checksum_verifies")));
  std::printf(
      "ingests published %llu  sampled points %llu\n",
      static_cast<unsigned long long>(
          snap.CounterOr("server.ingests_published")),
      static_cast<unsigned long long>(snap.CounterOr("sample.points")));
}

int StatsCmd(const Args& args) {
  auto client = ConnectFromArgs(args);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  auto snap = client->Stats();
  if (!snap.ok()) {
    std::fprintf(stderr, "%s\n", snap.status().ToString().c_str());
    return 1;
  }
  if (args.Get("raw")) {
    // Machine-greppable dump of every metric in the snapshot, one per
    // line, names already sorted by the snapshot invariant.
    for (const auto& c : snap->counters) {
      std::printf("counter %s %llu\n", c.name.c_str(),
                  static_cast<unsigned long long>(c.value));
    }
    for (const auto& g : snap->gauges) {
      std::printf("gauge %s %lld\n", g.name.c_str(),
                  static_cast<long long>(g.value));
    }
    for (const auto& h : snap->histograms) {
      std::printf("histogram %s count %llu sum %llu p50 %llu p99 %llu "
                  "max %llu\n",
                  h.name.c_str(),
                  static_cast<unsigned long long>(h.hist.Count()),
                  static_cast<unsigned long long>(h.hist.sum),
                  static_cast<unsigned long long>(
                      h.hist.ValueAtQuantile(0.5)),
                  static_cast<unsigned long long>(
                      h.hist.ValueAtQuantile(0.99)),
                  static_cast<unsigned long long>(h.hist.max));
    }
    return 0;
  }
  PrintEndpointTable(*snap, obs::MetricsSnapshot{}, /*seconds=*/0.0,
                     /*rates=*/false);
  std::printf("\n");
  PrintServerSummary(*snap);
  return 0;
}

int Top(const Args& args) {
  auto client = ConnectFromArgs(args);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  const int interval_ms = std::max(1, args.Number("interval-ms", 1000));
  // 0 = refresh until interrupted; a bound makes `top` scriptable.
  const uint64_t iterations = args.Number<uint64_t>("iterations", 0);
  // The first snapshot is the baseline; every displayed frame is the
  // interval since the previous one.
  auto prev = client->Stats();
  if (!prev.ok()) {
    std::fprintf(stderr, "%s\n", prev.status().ToString().c_str());
    return 1;
  }
  auto prev_time = std::chrono::steady_clock::now();
  for (uint64_t frame = 0; iterations == 0 || frame < iterations; ++frame) {
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    auto snap = client->Stats();
    if (!snap.ok()) {
      std::fprintf(stderr, "%s\n", snap.status().ToString().c_str());
      return 1;
    }
    const auto now = std::chrono::steady_clock::now();
    const double seconds =
        std::max(1e-9, std::chrono::duration<double>(now - prev_time).count());
    // Home the cursor and clear downward; \x1b[2J would flicker.
    std::printf("\x1b[H\x1b[J");
    std::printf("privhp top — refresh %.1fs\n\n", seconds);
    PrintEndpointTable(*snap, *prev, seconds, /*rates=*/true);
    std::printf("\n");
    PrintServerSummary(*snap);
    std::fflush(stdout);
    prev = std::move(snap);
    prev_time = now;
  }
  return 0;
}

struct Command {
  const char* name;
  int (*run)(const Args&);
  // The flags the command reads; any other is a usage error.
  std::map<std::string, Kind> flags;
};

// Where a server listens (serve, \p port = kListenPort) or a client
// reaches it (ConnectFromArgs, kPort).
std::map<std::string, Kind> WithConnectFlags(std::map<std::string, Kind> flags,
                                             Kind port = Kind::kPort) {
  flags.insert({{"unix", Kind::kText},
                {"host", Kind::kText},
                {"port", port},
                {"auth-token", Kind::kText}});
  return flags;
}

const std::vector<Command>& Commands() {
  static const std::vector<Command> commands = {
      {"build", Build,
       {{"in", Kind::kText},
        {"out", Kind::kText},
        {"dim", Kind::kInt},
        {"epsilon", Kind::kReal},
        {"k", Kind::kUint},
        {"n", Kind::kUint},
        {"seed", Kind::kUint},
        {"threads", Kind::kInt}}},
      {"sample", Sample,
       {{"tree", Kind::kText},
        {"m", Kind::kUint},
        {"out", Kind::kText},
        {"seed", Kind::kUint}}},
      {"quantile", Quantile, {{"tree", Kind::kText}, {"q", Kind::kReal}}},
      {"heavy", Heavy, {{"tree", Kind::kText}, {"threshold", Kind::kReal}}},
      {"w1", W1,
       {{"a", Kind::kText}, {"b", Kind::kText}, {"dim", Kind::kInt}}},
      {"pack", Pack,
       {{"tree", Kind::kText},
        {"out", Kind::kText},
        {"page-size", Kind::kUint}}},
      {"serve", Serve,
       WithConnectFlags({{"load", Kind::kText},
                         {"workers", Kind::kInt},
                         {"seed", Kind::kUint},
                         {"memory-budget-mb", Kind::kUint}},
                        Kind::kListenPort)},
      {"query", Query,
       WithConnectFlags({{"artifact", Kind::kText},
                         {"list", Kind::kSwitch},
                         {"sample", Kind::kUint},
                         {"seed", Kind::kUint},
                         {"out", Kind::kText},
                         {"quantile", Kind::kReal},
                         {"heavy", Kind::kReal},
                         {"level", Kind::kInt},
                         {"index", Kind::kUint},
                         {"export", Kind::kText}})},
      {"ingest", Ingest,
       WithConnectFlags({{"artifact", Kind::kText},
                         {"in", Kind::kText},
                         {"dim", Kind::kInt},
                         {"epsilon", Kind::kReal},
                         {"k", Kind::kUint},
                         {"n", Kind::kUint},
                         {"seed", Kind::kUint},
                         {"threads", Kind::kInt}})},
      {"stats", StatsCmd, WithConnectFlags({{"raw", Kind::kSwitch}})},
      {"top", Top,
       WithConnectFlags({{"interval-ms", Kind::kInt},
                         {"iterations", Kind::kUint}})},
  };
  return commands;
}

// Reads argv[2..] against \p command's flags: every flag must be one the
// command reads, every value must fit its flag's kind, and only switches
// may omit a value ("--seed --out f" must not parse as seed = "").
Result<Args> Parse(const Command& command, int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const char* flag = argv[i];
    if (std::strncmp(flag, "--", 2) != 0) {
      return Status::InvalidArgument(std::string("bad flag: ") + flag);
    }
    auto spec = command.flags.find(flag + 2);
    if (spec == command.flags.end()) {
      return Status::InvalidArgument(std::string(command.name) +
                                     " does not take " + flag);
    }
    if (spec->second == Kind::kSwitch) {
      args.flags[spec->first].push_back("");
      continue;
    }
    if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      return Status::InvalidArgument(std::string("flag needs a value: ") +
                                     flag);
    }
    const char* value = argv[++i];
    if (!ValueFits(value, spec->second)) {
      return Status::InvalidArgument(std::string("bad value for ") + flag +
                                     ": '" + value + "'");
    }
    args.flags[spec->first].push_back(value);
  }
  return args;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  for (const Command& command : Commands()) {
    if (command.name != std::string(argv[1])) continue;
    auto args = Parse(command, argc, argv);
    if (!args.ok()) {
      std::fprintf(stderr, "%s\n", args.status().message().c_str());
      return Usage();
    }
    return command.run(*args);
  }
  return Usage();
}

}  // namespace
}  // namespace privhp

int main(int argc, char** argv) { return privhp::Run(argc, argv); }
