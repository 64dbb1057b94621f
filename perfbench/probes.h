// Per-layer probes for traced runs. Each probe calls one layer's public
// functions in process, on the workload's own stream or release, and
// records the result under the per-layer metric names of BENCHMARK.json.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/generator.h"
#include "domain/domain.h"
#include "service/client.h"

namespace perfbench {

/// Serialized v2 tree of a release (what EXPORT returns for it).
std::string TreeBlob(const privhp::PrivHPGenerator& generator);

/// Ingest and release layers for a \p threads-way build of \p stream:
/// reader wait, merge, finish, compile, pack and open times, the ns/pt of
/// validate, locate, sketch update and shard add on 512-point batches, and
/// the state and artifact sizes. \p single_thread_s is the time of a
/// one-thread build of the same stream when the caller already has it
/// (<= 0 measures it here). Packs the release to \p path.
void ProbePublishLayers(const privhp::PointBatch& stream, int threads,
                        double single_thread_s, const std::string& path,
                        Report* report);

/// Serve-side layers over packed artifacts: sampling into a counting
/// sink, point-frame encode/decode on 4096-point frames and ParseRequest
/// on \p live_path (mmapped), RangeMass/Quantiles on it and on
/// \p fixed_path opened through a \p pool_bytes buffer pool.
void ProbeServeLayers(const std::string& live_path,
                      const std::string& fixed_path, size_t pool_bytes,
                      Report* report);

/// core.session_build_ms: an in-process one-thread build of one ingest
/// session's stream (the mixed workload's 2^18 points).
void ProbeSessionBuild(const privhp::PointBatch& session, Report* report);

/// Sends a fixed number of each op (RANGE and QUANTILE on every artifact
/// in \p artifacts, SAMPLE, one INGEST) over \p client so every op's
/// server histogram is populated on every workload. Returns the
/// client-observed RANGE round-trip times in microseconds.
std::vector<double> ProbeServiceOps(privhp::PrivHPClient* client,
                                    const std::vector<std::string>& artifacts,
                                    Report* report);

/// Reads the server's STATS over \p client into the service.* and
/// storage.pool_* metrics. service.client_gap_us is \p client_p50_us
/// minus the server-side p50 of the histograms named in \p ops.
void ReadServerStats(privhp::PrivHPClient* client, double client_p50_us,
                     const std::vector<std::string>& ops, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
