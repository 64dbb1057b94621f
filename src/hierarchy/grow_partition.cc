#include "hierarchy/grow_partition.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "hierarchy/consistency.h"

namespace privhp {

namespace {

// Top-k node ids by count, descending; ties broken by cell index so runs
// are deterministic. If k >= candidates, all survive.
std::vector<NodeId> SelectTopK(const PartitionTree& tree,
                               std::vector<NodeId> candidates, size_t k) {
  auto hotter = [&](NodeId a, NodeId b) {
    const TreeNode& na = tree.node(a);
    const TreeNode& nb = tree.node(b);
    if (na.count != nb.count) return na.count > nb.count;
    return na.cell.index < nb.cell.index;
  };
  if (candidates.size() > k) {
    std::nth_element(candidates.begin(), candidates.begin() + k,
                     candidates.end(), hotter);
    candidates.resize(k);
  }
  std::sort(candidates.begin(), candidates.end(), hotter);
  return candidates;
}

}  // namespace

size_t GrownNodeCount(const GrowOptions& options) {
  const size_t leaves = size_t{1} << options.l_star;
  size_t nodes = 2 * leaves - 1;
  size_t hot = leaves;
  for (int level = options.l_star + 1; level <= options.grow_to; ++level) {
    nodes += 2 * hot;
    hot = std::min(2 * hot, options.k);
  }
  return nodes;
}

Status GrowPartition(PartitionTree* tree, const LevelFrequencySource& source,
                     const GrowOptions& options) {
  if (options.l_star < 0 || options.grow_to < options.l_star) {
    return Status::InvalidArgument(
        "GrowPartition requires 0 <= l_star <= grow_to");
  }
  if (options.grow_to > tree->domain()->max_level()) {
    return Status::OutOfRange("grow_to exceeds domain max level");
  }
  if (options.grow_to > options.l_star && options.k == 0) {
    return Status::InvalidArgument("k must be >= 1 to grow below l_star");
  }
  // The initial tree must be complete to exactly l_star.
  if (tree->MaxDepth() != options.l_star ||
      tree->num_nodes() != (size_t{2} << options.l_star) - 1) {
    return Status::FailedPrecondition(
        "GrowPartition expects a complete tree of depth l_star");
  }

  // Line 2: depth-first consistency over the initial tree.
  if (options.enforce_consistency) EnforceConsistencyTree(tree);

  // Line 3: every level-L* node starts hot.
  std::vector<NodeId> hot = tree->NodesAtLevel(options.l_star);
  tree->Reserve(GrownNodeCount(options));

  // Lines 4-10: expand hot nodes one level at a time.
  std::vector<NodeId> added;
  std::vector<uint64_t> indices;
  std::vector<double> counts;
  for (int level = options.l_star + 1; level <= options.grow_to; ++level) {
    added.clear();
    indices.clear();
    for (NodeId id : hot) {
      const NodeId left = tree->AddChildren(id);
      added.push_back(left);
      added.push_back(left + 1);
      indices.push_back(tree->node(left).cell.index);
      indices.push_back(tree->node(left + 1).cell.index);
    }
    counts.resize(indices.size());
    source.QueryBatch(level, indices.data(), indices.size(), counts.data());
    for (size_t i = 0; i < added.size(); ++i) {
      tree->node(added[i]).count = counts[i];
    }
    // Line 9: make the two fresh estimates consistent with their parent.
    if (options.enforce_consistency) {
      for (NodeId id : hot) EnforceConsistencyAt(tree, id);
    }
    // Line 10: the next hot set is the top-k of the new level.
    if (level < options.grow_to) {
      hot = SelectTopK(*tree, std::move(added), options.k);
    }
  }
  return Status::OK();
}

}  // namespace privhp
