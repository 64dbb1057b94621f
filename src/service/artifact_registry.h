// Named, refcounted, hot-swappable released artifacts.
//
// The paper's deployment model (and e.g. Jordon et al.'s "Synthetic Data
// — what, why and how?") is release-once / serve-many: the bounded-memory
// builder runs once per stream, and the released noisy partition tree is
// then queried and resampled indefinitely at no further privacy cost
// (Lemma 2). The registry is the serving half of that split: it owns the
// released artifacts by name, validates them on load, and lets a
// re-ingest atomically replace a live artifact while readers keep
// sampling the version they hold — publication is a shared_ptr swap, so
// readers are never blocked by a swap and an unpublished artifact stays
// alive until its last in-flight request drops it.
//
// An artifact is served from one of three representations behind the
// same query surface, chosen at load time:
//   - heap: a v2 tree file parsed into a PartitionTree whose sampler
//     compiles on the first SAMPLE (also the shape INGEST publishes);
//   - mmap: a packed paged file (storage/paged_artifact.h) mapped and
//     walked in place — near-zero startup, no heap copy of the tree;
//   - pooled: the same paged file behind a bounded buffer pool, picked
//     when mapping it would exceed the registry's memory budget.
// All three answer queries bit-identically (the storage tests gate it),
// so callers never know or care which representation they hit.

#ifndef PRIVHP_SERVICE_ARTIFACT_REGISTRY_H_
#define PRIVHP_SERVICE_ARTIFACT_REGISTRY_H_

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "core/generator.h"
#include "core/queries.h"
#include "domain/domain.h"
#include "io/point_sink.h"
#include "storage/paged_artifact.h"

namespace privhp {

/// \brief One released artifact plus everything needed to serve it.
///
/// Immutable after construction: concurrent readers share it through
/// const shared_ptrs, so serving needs no per-artifact locking (the
/// pooled representation synchronizes internally). Heap-backed
/// artifacts compile their CompiledSampler alias table once, on the
/// first SAMPLE (PrivHPGenerator::sampler()); paged artifacts borrow
/// the table straight from the file.
class ServedArtifact {
 public:
  /// \brief Wraps a generator built over \p domain (which the generator's
  /// tree must already point at). \p source describes provenance for
  /// reports ("file:gen.tree", "ingest", ...).
  static std::shared_ptr<const ServedArtifact> Make(
      std::unique_ptr<const Domain> domain, PrivHPGenerator generator,
      std::string source);

  /// \brief Loads an artifact file of either format: a packed paged
  /// artifact (sniffed by magic) is opened mmapped in place; a v2 tree
  /// file is parsed onto the heap, reconstructing the domain from its
  /// header (v1 files are rejected — they predate the dimension check
  /// and cannot be validated).
  static Result<std::shared_ptr<const ServedArtifact>> FromFile(
      const std::string& path);

  /// \brief Opens a packed paged artifact with explicit read options
  /// (the registry uses this to force buffer-pool mode over budget).
  static Result<std::shared_ptr<const ServedArtifact>> FromPagedFile(
      const std::string& path, const storage::PagedReadOptions& options);

  const Domain& domain() const {
    return paged_ ? paged_->domain() : *domain_;
  }
  const std::string& source() const { return source_; }

  /// \brief The heap generator; only valid when !is_paged() (aborts
  /// otherwise — serving code must go through the query surface below).
  const PrivHPGenerator& generator() const;

  bool is_paged() const { return paged_ != nullptr; }
  const storage::PagedArtifact* paged() const { return paged_.get(); }

  /// \brief Which serving representation backs this artifact. The
  /// numeric values are what the STATS snapshot reports in
  /// "artifact.<name>.repr" gauges, so they are part of the wire
  /// contract — append, never renumber.
  enum class Representation { kHeap = 0, kMmap = 1, kPool = 2 };
  Representation representation() const {
    if (!paged_) return Representation::kHeap;
    return paged_->pooled() ? Representation::kPool : Representation::kMmap;
  }

  /// \brief The buffer pool serving this artifact, or nullptr for the
  /// heap and mmap representations (observability surface for the
  /// pool's hit/miss/eviction/checksum-verify counters).
  const storage::BufferPool* buffer_pool() const {
    return paged_ ? paged_->pool() : nullptr;
  }

  // ---- Representation-independent query surface (what the server
  // handlers call). Bit-identical across heap/mmap/pooled.

  /// \brief Mass fraction inside \p cell (RANGE).
  Result<double> RangeMass(CellId cell) const;

  /// \brief Quantiles of a 1-D artifact (QUANTILE).
  Result<std::vector<double>> Quantiles(const std::vector<double>& qs) const;

  /// \brief Hierarchical heavy hitters at \p threshold (HEAVY).
  Result<std::vector<HeavyCell>> Heavy(double threshold) const;

  /// \brief Streams \p m synthetic points into \p sink (SAMPLE).
  Status GenerateTo(size_t m, RandomEngine* rng, PointSink* sink) const;

  /// \brief The artifact serialized in tree format v2 (EXPORT) —
  /// byte-identical whichever representation serves it.
  Result<std::string> ExportBlob() const;

  /// \brief Node count of the released tree.
  uint64_t num_nodes() const;

  /// \brief Noisy root count.
  double TotalMass() const;

  /// \brief Bytes this artifact keeps addressable (tree plus the alias
  /// table's CompiledSampler::MemoryBytesBound on the heap path, charged
  /// from load although the table compiles on the first SAMPLE; map or
  /// pool on the paged paths) — what the registry's memory budget
  /// meters.
  size_t ResidentBytes() const;

 private:
  ServedArtifact() = default;

  std::unique_ptr<const Domain> domain_;     // heap mode only
  std::optional<PrivHPGenerator> generator_;  // heap mode only
  std::unique_ptr<const storage::PagedArtifact> paged_;
  std::string source_;
};

/// \brief Serving-tier memory policy.
struct RegistryOptions {
  /// \brief Soft cap on summed artifact ResidentBytes. 0 = unlimited.
  /// When loading a paged file would push the total past the cap, the
  /// registry serves it through a bounded buffer pool instead of
  /// mapping it whole.
  size_t memory_budget_bytes = 0;

  /// \brief Buffer-pool capacity given to each over-budget artifact.
  size_t pool_bytes_per_artifact = 4u << 20;
};

/// \brief Thread-safe name -> artifact map with atomic hot-swap.
class ArtifactRegistry {
 public:
  ArtifactRegistry() = default;
  explicit ArtifactRegistry(RegistryOptions options)
      : options_(options) {}

  /// \brief Publishes \p artifact under \p name, atomically replacing any
  /// previous artifact of that name (readers holding the old shared_ptr
  /// are unaffected).
  Status Publish(const std::string& name,
                 std::shared_ptr<const ServedArtifact> artifact)
      EXCLUDES(mu_);

  /// \brief Loads an artifact file (paged or v2 tree) and publishes it
  /// under \p name, honouring the memory budget for paged files.
  Status LoadFile(const std::string& name, const std::string& path)
      EXCLUDES(mu_);

  /// \brief The artifact currently published under \p name.
  Result<std::shared_ptr<const ServedArtifact>> Get(
      const std::string& name) const EXCLUDES(mu_);

  /// \brief Unpublishes \p name; returns false if absent. In-flight
  /// readers keep their reference.
  bool Remove(const std::string& name) EXCLUDES(mu_);

  /// \brief Published names, sorted.
  std::vector<std::string> List() const EXCLUDES(mu_);

  size_t size() const EXCLUDES(mu_);

  /// \brief Summed ResidentBytes of the published artifacts.
  size_t resident_bytes() const EXCLUDES(mu_);

  /// \brief Successful Publish() calls over the registry's lifetime
  /// (LoadFile and INGEST both land here) — monotonic, unlike size().
  uint64_t publishes() const {
    return publishes_.load(std::memory_order_relaxed);
  }

  const RegistryOptions& options() const { return options_; }

 private:
  RegistryOptions options_;
  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<const ServedArtifact>> artifacts_
      GUARDED_BY(mu_);
  std::atomic<uint64_t> publishes_{0};
};

}  // namespace privhp

#endif  // PRIVHP_SERVICE_ARTIFACT_REGISTRY_H_
