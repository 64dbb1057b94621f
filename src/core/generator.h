// The released synthetic-data generator T_PrivHP (paper Section 5).
//
// Owns the final pruned, consistent decomposition tree. Everything here is
// post-processing of an eps-DP artifact (Lemma 2), so a generator can be
// sampled, saved, reloaded and queried indefinitely at no further privacy
// cost.

#ifndef PRIVHP_CORE_GENERATOR_H_
#define PRIVHP_CORE_GENERATOR_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/planner.h"
#include "hierarchy/compiled_sampler.h"
#include "hierarchy/partition_tree.h"
#include "io/point_sink.h"

namespace privhp {

/// \brief eps-DP synthetic data generator backed by a decomposition tree.
///
/// The sampling distribution is compiled into an alias table
/// (hierarchy/compiled_sampler.h) on the first sampler() / Sample /
/// Generate* call — once, however many threads make that call at the
/// same time — so every draw is O(1) per point, repeated sampling never
/// rebuilds sampler state, and every holder of the generator (including
/// every concurrent SAMPLE request pinning a ServedArtifact) shares the
/// one compiled table. A generator that is only saved or packed never
/// compiles: the packer compiles its own table to write it.
class PrivHPGenerator {
 public:
  /// \param tree Final consistent tree (moved in).
  /// \param plan The resolved build parameters (for reports).
  PrivHPGenerator(PartitionTree tree, ResolvedPlan plan);

  /// \brief One synthetic point.
  Point Sample(RandomEngine* rng) const { return sampler().Sample(rng); }

  /// \brief \p m synthetic points (the dataset Y of the problem statement).
  std::vector<Point> Generate(size_t m, RandomEngine* rng) const;

  /// \brief \p m synthetic points into a columnar batch (cleared first)
  /// — the zero-allocation sampling hot path.
  Status GenerateBatch(size_t m, RandomEngine* rng, PointBatch* out) const {
    return sampler().SampleTo(m, rng, out);
  }

  /// \brief Streams \p m synthetic points into \p sink without
  /// materializing them — the serve-side dual of the bounded-memory
  /// builder (a CSV writer or socket sink keeps the footprint O(1) in m).
  /// Points travel in reused columnar chunks through
  /// PointSink::AddAll(PointBatch), and the sequence is identical to
  /// Generate() for a given rng state.
  Status GenerateTo(size_t m, RandomEngine* rng, PointSink* sink) const;

  /// \brief The compiled sampling distribution (shared hot path),
  /// compiled from the tree on the first call. Thread-safe.
  const CompiledSampler& sampler() const;

  /// \brief Whether sampler() has compiled the table yet.
  bool sampler_compiled() const {
    return lazy_->compiled.load(std::memory_order_acquire) != nullptr;
  }

  /// \brief The underlying tree (the private artifact itself).
  const PartitionTree& tree() const { return tree_; }

  /// \brief Build parameters used.
  const ResolvedPlan& plan() const { return plan_; }

  /// \brief Total (noisy) mass at the root.
  double TotalMass() const { return tree_.node(tree_.root()).count; }

  /// \brief Bytes held by the released artifact.
  size_t MemoryBytes() const { return tree_.MemoryBytes(); }

  /// \brief Persists the tree. Load() with the same domain restores a
  /// generator that samples the identical distribution.
  Status Save(const std::string& path) const;
  static Result<PrivHPGenerator> Load(const Domain* domain,
                                      const std::string& path);
  /// \brief Wraps a tree loaded from a file; the plan carries only its
  /// depth (a loaded artifact has no build metadata).
  static PrivHPGenerator FromLoadedTree(PartitionTree tree);

 private:
  // The table compiled from tree_ on first use. Self-contained (no
  // pointer into the tree arena, only the stable Domain pointer), and
  // held by shared_ptr: copies and moves of the generator cost a
  // reference count and share one table. That is sound because no
  // holder can mutate the tree, so every copy compiles the same bytes.
  struct LazySampler {
    std::once_flag once;
    std::optional<CompiledSampler> table;
    std::atomic<const CompiledSampler*> compiled{nullptr};
  };

  PartitionTree tree_;
  ResolvedPlan plan_;
  std::shared_ptr<LazySampler> lazy_ = std::make_shared<LazySampler>();
};

}  // namespace privhp

#endif  // PRIVHP_CORE_GENERATOR_H_
