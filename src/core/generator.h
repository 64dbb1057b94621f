// The released synthetic-data generator T_PrivHP (paper Section 5).
//
// Owns the final pruned, consistent decomposition tree. Everything here is
// post-processing of an eps-DP artifact (Lemma 2), so a generator can be
// sampled, saved, reloaded and queried indefinitely at no further privacy
// cost.

#ifndef PRIVHP_CORE_GENERATOR_H_
#define PRIVHP_CORE_GENERATOR_H_

#include <string>
#include <vector>

#include "core/planner.h"
#include "hierarchy/compiled_sampler.h"
#include "hierarchy/partition_tree.h"
#include "io/point_sink.h"

namespace privhp {

/// \brief eps-DP synthetic data generator backed by a decomposition tree.
///
/// The sampling distribution is compiled once at construction into an
/// alias table (hierarchy/compiled_sampler.h), so every Sample /
/// Generate / GenerateTo call is O(1) per point — repeated sampling
/// never rebuilds sampler state, and every holder of the generator
/// (including every concurrent SAMPLE request pinning a ServedArtifact)
/// shares the one compiled table.
class PrivHPGenerator {
 public:
  /// \param tree Final consistent tree (moved in).
  /// \param plan The resolved build parameters (for reports).
  PrivHPGenerator(PartitionTree tree, ResolvedPlan plan);

  /// \brief One synthetic point.
  Point Sample(RandomEngine* rng) const { return sampler_.Sample(rng); }

  /// \brief \p m synthetic points (the dataset Y of the problem statement).
  std::vector<Point> Generate(size_t m, RandomEngine* rng) const;

  /// \brief \p m synthetic points into a columnar batch (cleared first)
  /// — the zero-allocation sampling hot path.
  Status GenerateBatch(size_t m, RandomEngine* rng, PointBatch* out) const {
    return sampler_.SampleTo(m, rng, out);
  }

  /// \brief Streams \p m synthetic points into \p sink without
  /// materializing them — the serve-side dual of the bounded-memory
  /// builder (a CSV writer or socket sink keeps the footprint O(1) in m).
  /// Points travel in reused columnar chunks through
  /// PointSink::AddAll(PointBatch), and the sequence is identical to
  /// Generate() for a given rng state.
  Status GenerateTo(size_t m, RandomEngine* rng, PointSink* sink) const;

  /// \brief The compiled sampling distribution (shared hot path).
  const CompiledSampler& sampler() const { return sampler_; }

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
  PartitionTree tree_;
  ResolvedPlan plan_;
  // Compiled from tree_ at construction. Self-contained (holds no
  // pointer into the tree arena, only the stable Domain pointer), so the
  // generator stays freely movable and copyable.
  CompiledSampler sampler_;
};

}  // namespace privhp

#endif  // PRIVHP_CORE_GENERATOR_H_
