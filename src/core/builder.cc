#include "core/builder.h"

#include <deque>
#include <thread>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/sync.h"
#include "hierarchy/grow_partition.h"
#include "sketch/private_sketch.h"

namespace privhp {

namespace {

// Adapts the per-level private sketches to GrowPartition's interface.
// Queries only read the sketches, so GrowPartition may run them from
// several threads at once.
class SketchLevelSource : public LevelFrequencySource {
 public:
  SketchLevelSource(const std::vector<PrivateCountMinSketch>* sketches,
                    int l_star)
      : sketches_(sketches), l_star_(l_star) {}

  double Query(int level, uint64_t index) const override {
    PRIVHP_DCHECK(level > l_star_);
    PRIVHP_DCHECK(static_cast<size_t>(level - l_star_ - 1) <
                  sketches_->size());
    return (*sketches_)[level - l_star_ - 1].Estimate(index);
  }

  void QueryBatch(int level, const uint64_t* indices, size_t count,
                  double* out) const override {
    PRIVHP_DCHECK(level > l_star_);
    PRIVHP_DCHECK(static_cast<size_t>(level - l_star_ - 1) <
                  sketches_->size());
    (*sketches_)[level - l_star_ - 1].EstimateBatch(indices, count, out);
  }

 private:
  const std::vector<PrivateCountMinSketch>* sketches_;
  int l_star_;
};

}  // namespace

PrivHPBuilder::PrivHPBuilder(const Domain* domain, ResolvedPlan plan,
                             PrivHPShard root)
    : domain_(domain),
      plan_(std::move(plan)),
      root_(std::move(root)),
      rng_(plan_.seed) {}

Result<PrivHPBuilder> PrivHPBuilder::Make(const Domain* domain,
                                          const PrivHPOptions& options) {
  if (domain == nullptr) {
    return Status::InvalidArgument("domain must not be null");
  }
  PRIVHP_ASSIGN_OR_RETURN(ResolvedPlan plan,
                          PlanParameters(*domain, options));
  PRIVHP_ASSIGN_OR_RETURN(PrivHPShard root, PrivHPShard::Make(domain, plan));
  PrivHPBuilder builder(domain, std::move(plan), std::move(root));
  PRIVHP_RETURN_NOT_OK(builder.ChargeAccountant());
  return builder;
}

Status PrivHPBuilder::ChargeAccountant() {
  const ResolvedPlan& p = plan_;
  PRIVHP_ASSIGN_OR_RETURN(
      accountant_,
      [&]() -> Result<std::unique_ptr<PrivacyAccountant>> {
        PRIVHP_ASSIGN_OR_RETURN(
            PrivacyAccountant acc,
            PrivacyAccountant::Make(p.privacy_disabled ? 1.0 : p.epsilon));
        return std::make_unique<PrivacyAccountant>(std::move(acc));
      }());
  if (p.privacy_disabled) return Status::OK();
  // The whole budget is committed up-front (Lines 2-8): one charge per
  // counter level and per sketch level, even though the corresponding
  // noise is only materialized at Finish().
  for (int l = 0; l <= p.l_star; ++l) {
    PRIVHP_RETURN_NOT_OK(accountant_->Charge(
        p.budget.sigma[l], "counters level " + std::to_string(l)));
  }
  for (int l = p.l_star + 1; l <= p.l_max; ++l) {
    PRIVHP_RETURN_NOT_OK(accountant_->Charge(
        p.budget.sigma[l], "sketch level " + std::to_string(l)));
  }
  return Status::OK();
}

Status PrivHPBuilder::Add(const Point& x) {
  if (finished_) {
    return Status::FailedPrecondition("builder already finished");
  }
  return root_.Add(x);
}

Status PrivHPBuilder::AddAll(const PointBatch& batch) {
  if (finished_) {
    return Status::FailedPrecondition("builder already finished");
  }
  return root_.AddBatch(batch);
}

Result<PrivHPShard> PrivHPBuilder::NewShard() const {
  return PrivHPShard::Make(domain_, plan_);
}

Status PrivHPBuilder::AbsorbShard(PrivHPShard&& shard) {
  if (finished_) {
    return Status::FailedPrecondition("builder already finished");
  }
  PRIVHP_RETURN_NOT_OK(root_.Merge(std::move(shard)));
  // Free the merged state here rather than leave it resident in the
  // caller's moved-from shard. A shard Merge rejects stays intact.
  PrivHPShard absorbed = std::move(shard);
  return Status::OK();
}

Result<PrivHPGenerator> PrivHPBuilder::Finish(int num_threads) && {
  if (finished_) {
    return Status::FailedPrecondition("builder already finished");
  }
  if (num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  finished_ = true;
  const ResolvedPlan& p = plan_;
  std::vector<double> counts = std::move(root_.counts_);
  std::vector<CountMinSketch> bases = std::move(root_.sketches_);

  // Privatization: the per-level Laplace noise of Lines 2-8, applied
  // exactly once over the merged exact state. Draw order (counter levels
  // in index order, then sketch cells row-major per level) is fixed by
  // the plan seed alone, so the release is deterministic in the seed and
  // independent of how many shards or threads fed the build. The draws
  // stay on this thread: their order defines the release. The counters
  // are in breadth-first order, so level l's draws fill one contiguous
  // run.
  if (!p.privacy_disabled) {
    for (int l = 0; l <= p.l_star; ++l) {
      const double scale = 1.0 / p.budget.sigma[l];
      double* level = counts.data() + CompleteNodeId(l, 0);
      const uint64_t level_size = uint64_t{1} << l;
      for (uint64_t i = 0; i < level_size; ++i) {
        level[i] += rng_.Laplace(scale);
      }
    }
  }
  std::vector<PrivateCountMinSketch> sketches;
  sketches.reserve(bases.size());
  for (int l = p.l_star + 1; l <= p.l_max; ++l) {
    const double sigma = p.privacy_disabled ? 0.0 : p.budget.sigma[l];
    PRIVHP_ASSIGN_OR_RETURN(
        PrivateCountMinSketch sketch,
        PrivateCountMinSketch::Privatize(
            std::move(bases[l - p.l_star - 1]), sigma, &rng_));
    sketches.push_back(std::move(sketch));
  }
  bases.clear();

  // Line 16: grow the partition from the sketches (Algorithm 2). The
  // release tree is built once from the noisy counters, with its arena
  // already at the size growing ends at. The sketches are read-only from
  // here on, so GrowPartition may query them from num_threads threads.
  GrowOptions grow;
  grow.k = p.k;
  grow.l_star = p.l_star;
  grow.grow_to = p.grow_to;
  grow.enforce_consistency = p.enforce_consistency;
  PRIVHP_ASSIGN_OR_RETURN(
      PartitionTree tree,
      PartitionTree::Complete(domain_, p.l_star, counts.data(),
                              GrownNodeCount(grow)));
  counts = std::vector<double>();
  SketchLevelSource source(&sketches, p.l_star);
  PRIVHP_RETURN_NOT_OK(GrowPartition(&tree, source, grow, num_threads));
  return PrivHPGenerator(std::move(tree), plan_);
}

size_t PrivHPBuilder::MemoryBytes() const {
  return memory_breakdown().total_bytes;
}

PrivHPBuilder::MemoryBreakdown PrivHPBuilder::memory_breakdown() const {
  MemoryBreakdown mb;
  mb.counter_bytes = root_.counts().size() * sizeof(double);
  for (const auto& s : root_.sketches()) mb.sketch_bytes += s.MemoryBytes();
  mb.total_bytes = mb.counter_bytes + mb.sketch_bytes;
  return mb;
}

Result<PrivHPGenerator> PrivHPBuilder::BuildParallel(
    const Domain* domain, const PrivHPOptions& options, PointSource* source,
    int num_threads) {
  if (source == nullptr) {
    return Status::InvalidArgument("source must not be null");
  }
  if (num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  PRIVHP_ASSIGN_OR_RETURN(PrivHPBuilder builder, Make(domain, options));
  if (num_threads == 1) {
    PRIVHP_RETURN_NOT_OK(Drain(source, &builder));
    return std::move(builder).Finish();
  }

  std::vector<PrivHPShard> shards;
  shards.reserve(num_threads);
  for (int t = 0; t < num_threads; ++t) {
    PRIVHP_ASSIGN_OR_RETURN(PrivHPShard shard, builder.NewShard());
    shards.push_back(std::move(shard));
  }

  // Single reader (the source is sequential), a one-window queue, one
  // worker per shard. The reader pulls whole windows (NextBatch), so a
  // framed source's decoded frames go into the queue as-is — no
  // per-point re-staging — and each worker feeds its batch straight
  // into the shard's AddBatch. Any worker failure drains the queue and
  // stops the reader; the first error wins. The queue holds one window,
  // so the points still queued at end-of-stream (the drain before
  // Finish) stay at one window; a deeper queue of these larger windows
  // only lengthened that drain.
  constexpr size_t kBatchSize = PrivHPShard::kWindow;
  constexpr size_t kMaxQueued = 1;
  // Local pipeline state, all guarded by mu (locals cannot carry
  // GUARDED_BY, so the waits below are explicit while loops by the
  // sync.h convention and every access stays visibly under a MutexLock).
  Mutex mu;
  CondVar batch_ready;
  CondVar slot_ready;
  std::deque<PointBatch> queue;
  bool done = false;
  bool failed = false;
  Status worker_error;

  std::vector<std::thread> workers;
  workers.reserve(num_threads);
  for (int t = 0; t < num_threads; ++t) {
    workers.emplace_back([&, t]() {
      PrivHPShard& shard = shards[t];
      for (;;) {
        PointBatch batch;
        {
          MutexLock lock(mu);
          while (!failed && !done && queue.empty()) batch_ready.Wait(mu);
          if (failed || queue.empty()) return;
          batch = std::move(queue.front());
          queue.pop_front();
          slot_ready.NotifyOne();
        }
        const Status added = shard.AddBatch(batch);
        if (!added.ok()) {
          MutexLock lock(mu);
          if (!failed) {
            failed = true;
            worker_error = added;
          }
          batch_ready.NotifyAll();
          slot_ready.NotifyAll();
          return;
        }
      }
    });
  }

  Status read_error;
  {
    PointBatch batch;
    for (;;) {
      Result<size_t> next = source->NextBatch(kBatchSize, &batch);
      if (!next.ok()) {
        read_error = next.status();
        break;
      }
      if (*next == 0) break;
      MutexLock lock(mu);
      while (!failed && queue.size() >= kMaxQueued) slot_ready.Wait(mu);
      if (failed) break;
      queue.push_back(std::move(batch));
      batch = PointBatch();
      batch_ready.NotifyOne();
    }
  }
  {
    MutexLock lock(mu);
    done = true;
  }
  batch_ready.NotifyAll();
  for (std::thread& w : workers) w.join();
  if (!read_error.ok()) return read_error;
  if (failed) return worker_error;

  for (PrivHPShard& shard : shards) {
    PRIVHP_RETURN_NOT_OK(builder.AbsorbShard(std::move(shard)));
  }
  return std::move(builder).Finish(num_threads);
}

}  // namespace privhp
