// The hierarchical decomposition tree T (paper Section 4).
//
// Nodes are stored in a contiguous arena; each node records its cell
// (level, index), its noisy count, and child slots. The tree starts as a
// complete binary tree of depth L* (Algorithm 1, Line 2) and is extended
// below L* by GrowPartition. A node either has both children or none —
// decompositions always split a cell into its two halves.

#ifndef PRIVHP_HIERARCHY_PARTITION_TREE_H_
#define PRIVHP_HIERARCHY_PARTITION_TREE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "domain/domain.h"

namespace privhp {

/// \brief Arena id of a tree node.
using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// \brief Arena id of (level, index) in a complete BFS-built tree (as
/// produced by PartitionTree::Complete): level l occupies slots
/// [2^l - 1, 2^{l+1} - 1), so counters can be addressed without a
/// root-to-node walk. The children of slot i are slots 2i + 1 and 2i + 2.
inline NodeId CompleteNodeId(int level, uint64_t index) {
  return static_cast<NodeId>(((uint64_t{1} << level) - 1) + index);
}

/// \brief OK iff a complete tree of \p depth over \p domain can be
/// built: InvalidArgument outside [0, domain->max_level()], OutOfRange
/// past depth 30 (2^31 nodes would overflow NodeId).
Status CheckCompleteDepth(const Domain* domain, int depth);

/// \brief One subdomain Omega_theta and its (noisy) count.
///
/// 32 bytes with no implicit padding, laid out exactly like the paged
/// format's PackedTreeNode (storage/page.h static_asserts it), so the
/// node arena is the packed node section and PackArtifact writes it as
/// it is. No upward link: a node's parent is Find(cell.Parent()).
struct TreeNode {
  CellId cell;
  double count = 0.0;
  NodeId left = kInvalidNode;
  NodeId right = kInvalidNode;

  bool is_leaf() const { return left == kInvalidNode; }
};

/// \brief Binary decomposition tree over a Domain.
///
/// The Domain pointer is not owned and must outlive the tree.
class PartitionTree {
 public:
  /// Creates a tree holding only the root (Omega itself, count 0).
  explicit PartitionTree(const Domain* domain);

  /// \brief Creates a complete tree of the given \p depth (Algorithm 1,
  /// Line 2), in breadth-first order (CompleteNodeId). Counts are zero,
  /// or, when \p counts is given, node i holds counts[i] (2^(depth+1) - 1
  /// of them, e.g. a shard's exact counters). The arena is reserved for
  /// max(\p capacity, 2^(depth+1) - 1) nodes, so a caller that knows the
  /// grown size allocates once.
  static Result<PartitionTree> Complete(const Domain* domain, int depth,
                                        const double* counts = nullptr,
                                        size_t capacity = 0);

  const Domain* domain() const { return domain_; }

  NodeId root() const { return 0; }
  size_t num_nodes() const { return nodes_.size(); }

  /// \brief Nodes the arena holds room for without reallocating.
  size_t capacity() const { return nodes_.capacity(); }

  TreeNode& node(NodeId id) { return nodes_[id]; }
  const TreeNode& node(NodeId id) const { return nodes_[id]; }

  /// \brief The node arena: num_nodes() nodes, contiguous, in id order.
  const TreeNode* arena() const { return nodes_.data(); }

  /// \brief Adds both children of \p id with zero counts; \p id must be a
  /// leaf. Returns the left child id (right child is the next id).
  NodeId AddChildren(NodeId id);

  /// \brief Appends level d + 1 to a tree complete to depth d in
  /// breadth-first order (as Complete builds it, d read off num_nodes()).
  /// Once laid out, the level holds the nodes AddChildren over level d in
  /// index order would append, in the same order. Until
  /// LayoutCompleteRange has covered the level, its nodes are blank:
  /// count 0, no children, cell (0, 0), parents unlinked.
  void AppendCompleteLevel();

  /// \brief Lays out cells [\p begin, \p end) of \p level in a
  /// breadth-first complete arena whose nodes there are still blank:
  /// node CompleteNodeId(level, i) gets cell (level, i) and becomes its
  /// parent's left or right child (slots 2p + 1 and 2p + 2 of parent p).
  /// \p begin and \p end are even. It writes only those nodes and their
  /// parents' links, so disjoint ranges can be laid out from different
  /// threads at once.
  void LayoutCompleteRange(int level, uint64_t begin, uint64_t end);

  /// \brief Walks from the root along the bit path of \p cell; returns the
  /// node id or kInvalidNode if the path leaves the tree.
  NodeId Find(CellId cell) const;

  /// \brief Ids of all leaves (pre-order).
  std::vector<NodeId> Leaves() const;

  /// \brief Deepest level present.
  int MaxDepth() const;

  /// \brief Calls \p fn on every node in pre-order (parent before
  /// children). A template, not a std::function, so the call inlines: the
  /// release path walks 131K-node trees with it (the alias compile's
  /// Leaves() and the consistency pass).
  template <typename Fn>
  void PreOrder(Fn&& fn) const {
    std::vector<NodeId> stack = {root()};
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      fn(id);
      const TreeNode& n = nodes_[id];
      if (!n.is_leaf()) {
        stack.push_back(n.right);
        stack.push_back(n.left);
      }
    }
  }

  /// \brief Bytes held by the node arena.
  size_t MemoryBytes() const;

  /// \brief Verifies structural and consistency invariants:
  /// each node has 0 or 2 children, child cells are the parent cell's
  /// halves, counts are non-negative, and children sum to their parent
  /// (within \p tolerance). Used by tests and after deserialization.
  Status Validate(double tolerance = 1e-6) const;

 private:
  const Domain* domain_;
  std::vector<TreeNode> nodes_;
};

}  // namespace privhp

#endif  // PRIVHP_HIERARCHY_PARTITION_TREE_H_
