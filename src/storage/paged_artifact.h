// A released artifact served in place from its packed file.
//
// Opening a paged artifact never rebuilds the heap representation: the
// file's sections *are* the node arena and the compiled alias table.
// Two read modes share one class:
//
//  - mmap (default): the whole file is mapped read-only, every data
//    page is verified against the checksum table once at open, and the
//    query templates / CompiledSampler::Borrow walk the mapped bytes
//    directly. Startup cost is the map plus one checksum sweep;
//    resident memory is whatever the OS keeps paged in.
//
//  - buffer pool: for artifacts over the registry's memory budget. A
//    RandomAccessFile plus a fixed-frame BufferPool serve individual
//    pages on demand, so resident memory is bounded by the pool no
//    matter how large the file is. Every miss re-reads its page and
//    verifies it against the checksum table, including a page that was
//    evicted and is read again. A tree walk keeps the page of its last
//    node pinned and reads the next node from it when it lies there;
//    it drops that pin before fetching any other page, so a reader
//    thread never holds two pins.
//
// Both modes answer RANGE/QUANTILE/HEAVY through the same `...Over`
// query templates the heap path uses, and draw samples in the same RNG
// order as CompiledSampler::Sample — so results are bit-identical
// across heap, mmap and pooled serving (the property the storage tests
// gate on).

#ifndef PRIVHP_STORAGE_PAGED_ARTIFACT_H_
#define PRIVHP_STORAGE_PAGED_ARTIFACT_H_

#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/queries.h"
#include "domain/domain.h"
#include "hierarchy/compiled_sampler.h"
#include "io/point_sink.h"
#include "storage/buffer_pool.h"
#include "storage/file_io.h"
#include "storage/paged_format.h"

namespace privhp {
namespace storage {

struct PagedReadOptions {
  /// \brief Serve through a bounded buffer pool instead of mmapping the
  /// whole file.
  bool use_buffer_pool = false;
  /// \brief Pool capacity in bytes (rounded down to whole pages, floor
  /// two frames). Only used when use_buffer_pool is true.
  size_t pool_bytes = 4u << 20;
};

/// \brief A packed artifact opened for serving. Immutable and
/// internally synchronized (the buffer pool carries the only mutable
/// state), so concurrent readers share one instance.
class PagedArtifact {
 public:
  static Result<std::unique_ptr<const PagedArtifact>> Open(
      const std::string& path, const PagedReadOptions& options = {});

  /// \brief True iff \p path starts with the paged magic — how the
  /// registry tells a packed artifact from a v2 tree file.
  static bool SniffPagedFile(const std::string& path);

  const Domain& domain() const { return *domain_; }
  const PagedHeader& header() const { return header_; }
  uint64_t num_nodes() const { return header_.num_nodes; }

  /// \brief Noisy root count (same quantity as PrivHPGenerator's).
  double TotalMass() const { return root_count_; }

  bool pooled() const { return pool_ != nullptr; }
  const BufferPool* pool() const { return pool_.get(); }

  /// \brief Bytes this artifact keeps addressable: the mapped file in
  /// mmap mode, the pool arena plus bookkeeping in pooled mode.
  size_t ResidentBytes() const;

  // Queries: the shared `...Over` templates run against the on-disk
  // node records. An unreadable or structurally corrupt page surfaces
  // as IOError, never a crash or a silent wrong answer.
  Result<double> RangeMass(CellId cell) const;
  Result<std::vector<double>> Quantiles(const std::vector<double>& qs) const;
  Result<std::vector<HeavyCell>> Heavy(double threshold) const;

  /// \brief Streams \p m synthetic points into \p sink, drawing the
  /// exact RNG sequence of m CompiledSampler::Sample calls.
  Status GenerateTo(size_t m, RandomEngine* rng, PointSink* sink) const;

  /// \brief Serializes the tree in text format v2 — byte-identical to
  /// SaveTree of the heap-loaded tree (EXPORT parity).
  Status ExportTo(std::ostream* os) const;

 private:
  friend class PagedTreeView;

  PagedArtifact() = default;

  /// Reads one section element (no page straddling by format
  /// construction). \p elem_bytes must match the section's element size.
  /// Pooled mode: with \p pin the element is read from the page *pin
  /// holds when it lies there; otherwise that pin is dropped, the page
  /// fetched and left pinned in *pin. Without \p pin the page is pinned
  /// only for the copy. mmap mode ignores \p pin.
  Status ReadElem(int section, uint64_t index, void* out, size_t elem_bytes,
                  PageRef* pin = nullptr) const;

  /// Pooled mode: pins data page \p page_no, loading + verifying it on
  /// a miss.
  Result<PageRef> FetchPage(uint64_t page_no) const;

  std::unique_ptr<const Domain> domain_;
  PagedHeader header_;
  double root_count_ = 0.0;

  // mmap mode.
  MmapFile map_;
  std::optional<CompiledSampler> sampler_;  // borrows the mapped table

  // pooled mode.
  std::optional<RandomAccessFile> file_;
  std::vector<uint64_t> page_checksums_;
  std::unique_ptr<BufferPool> pool_;
};

}  // namespace storage
}  // namespace privhp

#endif  // PRIVHP_STORAGE_PAGED_ARTIFACT_H_
