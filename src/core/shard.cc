#include "core/shard.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace privhp {

uint64_t SketchHashSeed(uint64_t plan_seed, int level) {
  return Mix64(plan_seed ^
               (0x632be59bd9b4e019ULL + static_cast<uint64_t>(level)));
}

PrivHPShard::PrivHPShard(const Domain* domain, ResolvedPlan plan,
                         PartitionTree tree)
    : domain_(domain), plan_(std::move(plan)), tree_(std::move(tree)) {}

Result<PrivHPShard> PrivHPShard::Make(const Domain* domain,
                                      const ResolvedPlan& plan) {
  if (domain == nullptr) {
    return Status::InvalidArgument("domain must not be null");
  }
  PRIVHP_ASSIGN_OR_RETURN(PartitionTree tree,
                          PartitionTree::Complete(domain, plan.l_star));
  PrivHPShard shard(domain, plan, std::move(tree));
  shard.sketches_.reserve(plan.l_max - plan.l_star);
  for (int l = plan.l_star + 1; l <= plan.l_max; ++l) {
    PRIVHP_ASSIGN_OR_RETURN(
        CountMinSketch sketch,
        CountMinSketch::Make(plan.sketch_width, plan.sketch_depth,
                             SketchHashSeed(plan.seed, l)));
    shard.sketches_.push_back(std::move(sketch));
  }
  return shard;
}

Status PrivHPShard::Add(const Point& x) {
  PRIVHP_RETURN_NOT_OK(domain_->ValidatePoint(x));
  // Lines 10-15: one root-to-leaf path of counter increments and sketch
  // updates.
  domain_->LocatePath(x, plan_.l_max, &path_scratch_);
  for (int l = 0; l <= plan_.l_star; ++l) {
    tree_.node(CompleteNodeId(l, path_scratch_[l])).count += 1.0;
  }
  for (int l = plan_.l_star + 1; l <= plan_.l_max; ++l) {
    sketches_[l - plan_.l_star - 1].Update(path_scratch_[l], 1.0);
  }
  ++num_processed_;
  return Status::OK();
}

namespace {

// AddBatch chunk size: large enough that the per-chunk LocatePathBatch
// virtual call and the per-level loop overheads amortize away, small
// enough that the reused path matrix (kAddBatchChunk * (l_max+1) keys)
// stays a bounded scratch allocation no matter how large a batch is.
constexpr size_t kAddBatchChunk = 256;

}  // namespace

void PrivHPShard::ApplyChunk(const double* flat, size_t n) {
  // One virtual call locates the whole chunk, level-major: row l holds
  // the chunk's level-l cell keys contiguously.
  domain_->LocatePathBatch(flat, domain_->dimension(), n, plan_.l_max,
                           batch_scratch_.data());
  // Counter levels: each row's bumps land in one contiguous arena
  // stretch (level l occupies slots [2^l - 1, 2^{l+1} - 1)).
  for (int l = 0; l <= plan_.l_star; ++l) {
    const uint64_t* row = batch_scratch_.data() + static_cast<size_t>(l) * n;
    for (size_t i = 0; i < n; ++i) {
      tree_.node(CompleteNodeId(l, row[i])).count += 1.0;
    }
  }
  // Sketch levels: one UpdateBatch per level.
  for (int l = plan_.l_star + 1; l <= plan_.l_max; ++l) {
    sketches_[l - plan_.l_star - 1].UpdateBatch(
        batch_scratch_.data() + static_cast<size_t>(l) * n, n, 1.0);
  }
}

Status PrivHPShard::AddBatch(const PointBatch& batch) {
  const size_t count = batch.size();
  if (count == 0) return Status::OK();
  // Validate the whole batch before mutating anything, so a bad point
  // anywhere in the batch leaves the shard untouched instead of
  // half-mutated (the old AddRange bug). On box domains this is one
  // SIMD bounds scan over the arena.
  PRIVHP_RETURN_NOT_OK(domain_->ValidateBatch(batch));
  const size_t levels = static_cast<size_t>(plan_.l_max) + 1;
  batch_scratch_.resize(std::min(count, kAddBatchChunk) * levels);
  const size_t d = static_cast<size_t>(batch.dim());
  for (size_t base = 0; base < count; base += kAddBatchChunk) {
    const size_t n = std::min(kAddBatchChunk, count - base);
    ApplyChunk(batch.data() + base * d, n);
  }
  num_processed_ += count;
  return Status::OK();
}

Status PrivHPShard::AddBatch(const Point* points, size_t count) {
  if (count == 0) return Status::OK();
  if (points == nullptr) {
    return Status::InvalidArgument("AddBatch requires points");
  }
  // Same all-or-nothing contract as the columnar form: validate every
  // point up front, then stage chunks into the reused arena and run the
  // identical flat path (one locate/update implementation for all batch
  // flavours).
  PRIVHP_RETURN_NOT_OK(domain_->ValidateBatch(points, count));
  const size_t levels = static_cast<size_t>(plan_.l_max) + 1;
  batch_scratch_.resize(std::min(count, kAddBatchChunk) * levels);
  stage_.Reset(domain_->dimension());
  stage_.Reserve(std::min(count, kAddBatchChunk));
  for (size_t base = 0; base < count; base += kAddBatchChunk) {
    const size_t n = std::min(kAddBatchChunk, count - base);
    stage_.Clear();
    for (size_t i = 0; i < n; ++i) stage_.AppendPoint(points[base + i]);
    ApplyChunk(stage_.data(), n);
  }
  num_processed_ += count;
  return Status::OK();
}

Status PrivHPShard::AddAll(const std::vector<Point>& points) {
  return AddBatch(points.data(), points.size());
}

Status PrivHPShard::AddRange(const std::vector<Point>& points, size_t begin,
                             size_t end) {
  if (begin > end || end > points.size()) {
    return Status::OutOfRange("AddRange bounds [" + std::to_string(begin) +
                              ", " + std::to_string(end) +
                              ") exceed dataset of size " +
                              std::to_string(points.size()));
  }
  return AddBatch(points.data() + begin, end - begin);
}

Status PrivHPShard::Merge(PrivHPShard&& other) {
  if (other.domain_ != domain_) {
    return Status::InvalidArgument(
        "cannot merge shards over different domains");
  }
  if (other.plan_.seed != plan_.seed || other.plan_.l_star != plan_.l_star ||
      other.plan_.l_max != plan_.l_max ||
      other.plan_.sketch_width != plan_.sketch_width ||
      other.plan_.sketch_depth != plan_.sketch_depth) {
    return Status::InvalidArgument(
        "cannot merge shards built from different plans (" +
        plan_.ToString() + " vs " + other.plan_.ToString() + ")");
  }
  PRIVHP_RETURN_NOT_OK(tree_.MergeCounts(other.tree_));
  PRIVHP_DCHECK(sketches_.size() == other.sketches_.size());
  for (size_t i = 0; i < sketches_.size(); ++i) {
    PRIVHP_RETURN_NOT_OK(sketches_[i].Merge(other.sketches_[i]));
  }
  num_processed_ += other.num_processed_;
  return Status::OK();
}

size_t PrivHPShard::MemoryBytes() const {
  size_t bytes = tree_.MemoryBytes();
  for (const CountMinSketch& s : sketches_) bytes += s.MemoryBytes();
  return bytes;
}

}  // namespace privhp
