#include "service/artifact_registry.h"

#include <sstream>
#include <utility>

#include "common/macros.h"
#include "hierarchy/tree_serialization.h"
#include "storage/file_io.h"

namespace privhp {

std::shared_ptr<const ServedArtifact> ServedArtifact::Make(
    std::unique_ptr<const Domain> domain, PrivHPGenerator generator,
    std::string source) {
  PRIVHP_CHECK(domain != nullptr);
  PRIVHP_CHECK(generator.tree().domain() == domain.get());
  auto artifact = std::shared_ptr<ServedArtifact>(new ServedArtifact());
  artifact->domain_ = std::move(domain);
  artifact->generator_.emplace(std::move(generator));
  artifact->source_ = std::move(source);
  return artifact;
}

Result<std::shared_ptr<const ServedArtifact>> ServedArtifact::FromFile(
    const std::string& path) {
  if (storage::PagedArtifact::SniffPagedFile(path)) {
    return FromPagedFile(path, storage::PagedReadOptions{});
  }
  PRIVHP_ASSIGN_OR_RETURN(SelfDescribedTree loaded,
                          LoadSelfDescribedTree(path));
  return Make(std::move(loaded.domain),
              PrivHPGenerator::FromLoadedTree(std::move(loaded.tree)),
              "file:" + path);
}

Result<std::shared_ptr<const ServedArtifact>> ServedArtifact::FromPagedFile(
    const std::string& path, const storage::PagedReadOptions& options) {
  PRIVHP_ASSIGN_OR_RETURN(std::unique_ptr<const storage::PagedArtifact> paged,
                          storage::PagedArtifact::Open(path, options));
  auto artifact = std::shared_ptr<ServedArtifact>(new ServedArtifact());
  artifact->paged_ = std::move(paged);
  artifact->source_ = std::string(options.use_buffer_pool
                                      ? "paged-pool:"
                                      : "paged-mmap:") +
                      path;
  return std::shared_ptr<const ServedArtifact>(std::move(artifact));
}

const PrivHPGenerator& ServedArtifact::generator() const {
  PRIVHP_CHECK(generator_.has_value());
  return *generator_;
}

Result<double> ServedArtifact::RangeMass(CellId cell) const {
  if (paged_) return paged_->RangeMass(cell);
  return CellMassFraction(generator_->tree(), cell);
}

Result<std::vector<double>> ServedArtifact::Quantiles(
    const std::vector<double>& qs) const {
  if (paged_) return paged_->Quantiles(qs);
  return TreeQuantiles(generator_->tree(), qs);
}

Result<std::vector<HeavyCell>> ServedArtifact::Heavy(double threshold) const {
  if (paged_) return paged_->Heavy(threshold);
  return HierarchicalHeavyHitters(generator_->tree(), threshold);
}

Status ServedArtifact::GenerateTo(size_t m, RandomEngine* rng,
                                  PointSink* sink) const {
  if (paged_) return paged_->GenerateTo(m, rng, sink);
  return generator_->GenerateTo(m, rng, sink);
}

Result<std::string> ServedArtifact::ExportBlob() const {
  std::ostringstream os;
  if (paged_) {
    PRIVHP_RETURN_NOT_OK(paged_->ExportTo(&os));
  } else {
    PRIVHP_RETURN_NOT_OK(SaveTree(generator_->tree(), &os));
  }
  return os.str();
}

uint64_t ServedArtifact::num_nodes() const {
  return paged_ ? paged_->num_nodes() : generator_->tree().num_nodes();
}

double ServedArtifact::TotalMass() const {
  return paged_ ? paged_->TotalMass() : generator_->TotalMass();
}

size_t ServedArtifact::ResidentBytes() const {
  if (paged_) return paged_->ResidentBytes();
  // The table is charged from load, compiled yet or not, so the budget
  // a LoadFile checks against does not grow on the first SAMPLE.
  return generator_->MemoryBytes() +
         CompiledSampler::MemoryBytesBound(generator_->tree());
}

Status ArtifactRegistry::Publish(
    const std::string& name, std::shared_ptr<const ServedArtifact> artifact) {
  if (name.empty()) {
    return Status::InvalidArgument("artifact name must not be empty");
  }
  if (artifact == nullptr) {
    return Status::InvalidArgument("artifact must not be null");
  }
  std::shared_ptr<const ServedArtifact> replaced;
  {
    MutexLock lock(mu_);
    // Swap under the lock but destroy the displaced artifact outside it:
    // the last reference may be ours, and tearing down a large tree while
    // holding mu_ would stall every concurrent Get().
    replaced = std::exchange(artifacts_[name], std::move(artifact));
  }
  publishes_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ArtifactRegistry::LoadFile(const std::string& name,
                                  const std::string& path) {
  std::shared_ptr<const ServedArtifact> artifact;
  if (storage::PagedArtifact::SniffPagedFile(path)) {
    storage::PagedReadOptions read;
    if (options_.memory_budget_bytes > 0) {
      // Budget check: mapping the file whole adds ~file_size of
      // addressable bytes. Over budget, serve through a bounded pool.
      // resident_bytes() takes and drops mu_ here, so two concurrent
      // LoadFiles can both pass the check — the budget is a soft cap by
      // contract (see RegistryOptions), so the benign TOCTOU is fine and
      // not worth holding mu_ across file IO.
      PRIVHP_ASSIGN_OR_RETURN(const uint64_t file_size,
                              storage::FileSize(path));
      if (resident_bytes() + file_size > options_.memory_budget_bytes) {
        read.use_buffer_pool = true;
        read.pool_bytes = options_.pool_bytes_per_artifact;
      }
    }
    PRIVHP_ASSIGN_OR_RETURN(artifact,
                            ServedArtifact::FromPagedFile(path, read));
  } else {
    PRIVHP_ASSIGN_OR_RETURN(artifact, ServedArtifact::FromFile(path));
  }
  return Publish(name, std::move(artifact));
}

Result<std::shared_ptr<const ServedArtifact>> ArtifactRegistry::Get(
    const std::string& name) const {
  MutexLock lock(mu_);
  auto it = artifacts_.find(name);
  if (it == artifacts_.end()) {
    return Status::InvalidArgument("no artifact named '" + name + "'");
  }
  return it->second;
}

bool ArtifactRegistry::Remove(const std::string& name) {
  std::shared_ptr<const ServedArtifact> removed;
  {
    MutexLock lock(mu_);
    auto it = artifacts_.find(name);
    if (it == artifacts_.end()) return false;
    removed = std::move(it->second);
    artifacts_.erase(it);
  }
  return true;
}

std::vector<std::string> ArtifactRegistry::List() const {
  std::vector<std::string> names;
  MutexLock lock(mu_);
  names.reserve(artifacts_.size());
  for (const auto& entry : artifacts_) names.push_back(entry.first);
  return names;
}

size_t ArtifactRegistry::size() const {
  MutexLock lock(mu_);
  return artifacts_.size();
}

size_t ArtifactRegistry::resident_bytes() const {
  MutexLock lock(mu_);
  size_t total = 0;
  for (const auto& entry : artifacts_) total += entry.second->ResidentBytes();
  return total;
}

}  // namespace privhp
