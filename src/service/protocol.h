// The PrivHP service wire protocol (version 1).
//
// Transport: length-prefixed frames (io/frame_socket.h). A request is one
// frame whose first byte is the opcode; a response is one frame whose
// first byte is a status code (0 = OK, otherwise a StatusCode value
// followed by a string message). Data-bearing responses append their
// payload after the OK byte.
//
//   PING                               -> OK
//   LIST                               -> OK [count:u32][name:string...]
//   SAMPLE   name m seed               -> OK [dim:u32][m:u64],
//                                         then point frames, then end
//                                         (io/socket_point_stream.h)
//   RANGE    name level index          -> OK [fraction:double]
//   QUANTILE name q...                 -> OK [count:u32][value:double...]
//   HEAVY    name threshold            -> OK [count:u32]
//                                         [(level:u32,index:u64,frac:f64)...]
//   STATS                              -> OK, versioned metrics snapshot
//                                         (counters, gauges, fixed-bucket
//                                         histograms; see
//                                         EncodeStatsSnapshot below)
//   EXPORT   name                      -> OK [total:u64], then chunk
//                                         frames [kExportChunkTag:u8]
//                                         [raw bytes], then an end frame
//                                         [kExportEndTag:u8][total:u64].
//                                         The reassembled bytes are the
//                                         serialized v2 tree — byte-equal
//                                         to Save() on the server side,
//                                         with no frame-size ceiling on
//                                         the artifact.
//   INGEST   name dim eps k n seed thr -> OK, then the client streams
//                                         point frames + end, then a final
//                                         OK [nodes:u64][total_mass:f64]
//   AUTH     token                     -> OK
//
// SAMPLE's seed makes a request reproducible: the same (artifact, m,
// seed) yields the identical point sequence on every worker. seed = 0
// requests "fresh" points from the worker's own engine instead.
//
// AUTH is the preshared-token handshake: when the server is started with
// `ServerOptions::auth_token`, a TCP connection's FIRST frame must be an
// AUTH request carrying the matching token — anything else gets an error
// response and the connection is closed. Unix-domain connections are
// exempt (filesystem permissions already gate them) but may still send
// AUTH; a wrong token is rejected on any transport.

#ifndef PRIVHP_SERVICE_PROTOCOL_H_
#define PRIVHP_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/queries.h"
#include "io/wire_format.h"
#include "obs/metrics_registry.h"

namespace privhp {

inline constexpr uint32_t kServiceProtocolVersion = 1;

/// \brief EXPORT stream frame tags (first byte of the frames following
/// the OK header; disjoint from the point-stream tags 0x20/0x21).
inline constexpr uint8_t kExportChunkTag = 0x30;
inline constexpr uint8_t kExportEndTag = 0x31;

/// \brief Request opcodes (first payload byte of a request frame).
enum class ServiceOp : uint8_t {
  kPing = 0x01,
  kList = 0x02,
  kSample = 0x03,
  kRange = 0x04,
  kQuantile = 0x05,
  kHeavy = 0x06,
  kExport = 0x07,
  kStats = 0x08,
  kAuth = 0x09,
  kIngest = 0x10,
};

/// \brief A decoded request (fields used depend on `op`).
struct ServiceRequest {
  ServiceOp op = ServiceOp::kPing;
  std::string artifact;

  // kSample
  uint64_t m = 0;
  uint64_t seed = 0;

  // kRange
  uint32_t level = 0;
  uint64_t index = 0;

  // kQuantile
  std::vector<double> qs;

  // kHeavy
  double threshold = 0.0;

  // kIngest
  uint32_t dim = 0;
  double epsilon = 1.0;
  uint64_t k = 32;
  uint64_t n = 0;
  uint32_t threads = 1;

  // kAuth
  std::string token;
};

/// \brief Request encoders (client side).
std::string EncodePingRequest();
std::string EncodeListRequest();
std::string EncodeSampleRequest(const std::string& artifact, uint64_t m,
                                uint64_t seed);
std::string EncodeRangeRequest(const std::string& artifact, uint32_t level,
                               uint64_t index);
std::string EncodeQuantileRequest(const std::string& artifact,
                                  const std::vector<double>& qs);
std::string EncodeHeavyRequest(const std::string& artifact, double threshold);
std::string EncodeExportRequest(const std::string& artifact);
std::string EncodeStatsRequest();
std::string EncodeIngestRequest(const ServiceRequest& spec);
std::string EncodeAuthRequest(const std::string& token);

/// \brief Decodes any request frame (server side).
Result<ServiceRequest> ParseRequest(const std::string& frame);

/// \brief Response framing: OK header byte (plus payload appended by the
/// caller via the returned writer) or an error carrying a Status.
std::string EncodeErrorResponse(const Status& status);
/// \brief Starts an OK response; append payload fields to the writer.
WireWriter BeginOkResponse();

/// \brief Splits a response frame: returns the embedded error Status, or
/// OK with \p payload positioned after the status byte. A status byte
/// above kLastStatusCode is an IOError, like any malformed frame.
Status ParseResponse(const std::string& frame, WireReader* payload);

/// \brief STATS snapshot payload version. Version 1 fixes both the field
/// layout and the histogram bucket scheme (obs/histogram.h), so a peer
/// that decodes version 1 can map bucket indices back to value bounds.
inline constexpr uint32_t kStatsSnapshotVersion = 1;

/// \brief Appends a STATS snapshot payload after the OK byte:
///   [version:u32]
///   [count:u32] { name:string value:u64 }        counters
///   [count:u32] { name:string value:u64 }        gauges (two's complement)
///   [count:u32] { name:string sum:u64 max:u64
///                 [buckets:u32] { index:u32 count:u64 } }   histograms
/// Histogram buckets are sparse (zero buckets are skipped), so a
/// snapshot frame stays small no matter how wide the bucket array is.
void EncodeStatsSnapshot(const obs::MetricsSnapshot& snapshot, WireWriter* w);

/// \brief Decodes a STATS snapshot payload. Every peer-declared count is
/// bounded against the remaining payload (WireReader::BoundedCount), and
/// bucket indices are validated against the fixed bucket array, so a
/// lying server cannot force a large allocation or an out-of-range
/// write. Rejects unknown snapshot versions.
Result<obs::MetricsSnapshot> DecodeStatsSnapshot(WireReader* payload);

}  // namespace privhp

#endif  // PRIVHP_SERVICE_PROTOCOL_H_
